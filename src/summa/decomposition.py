"""Rank-one recovery from off-diagonal moment observations.

The covariance of conditionally independent rank predictions equals a
rank-one matrix plus an unknown diagonal.  Only the off-diagonal entries
are trusted; the diagonal is inferred by alternating between a dominant
eigenpair computation and re-imputing the diagonal from the current
rank-one iterate:

    Y <- Q - diag(Q) + diag(lambda * u u^T)
    (lambda, u) <- leading eigenpair of Y

which is projected gradient descent (unit step) on the off-diagonal
squared mismatch over the set of symmetric PSD rank-one matrices, so the
off-diagonal residual never increases.  The analogous loop on the third
moment tensor replaces the eigenpair step with a symmetric higher-order
power iteration u <- T(., u, u) / ||T(., u, u)||; there only the entries
with three distinct indices are trusted, and every entry with a repeated
index is re-imputed from the rank-one iterate.

Recovery is only well-posed up to a global sign; :func:`resolve_sign`
picks the orientation under which most methods look better than random,
and :func:`check_recoverability` flags coordinates so dominant that the
diagonal/rank-one split may not be unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, NoSignal, NotConverged, TooFewMethods, ZeroMatrix

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000
POWER_TOL = 1e-10
POWER_MAX_ITER = 100_000
# per-pass budget for the tensor power iteration; a noise-dominated
# tensor has no dominant direction, so a full-convergence budget is
# wasted there and the outer loop re-judges after re-imputation anyway
HOPM_MAX_ITER = 1000

# Off-diagonal magnitudes below this (relative) scale are treated as no signal.
_SIGNAL_EPS = 1e-13


@dataclass(frozen=True, eq=False)
class Rank1Recovery:
    """Recovered rank-one factor of a covariance matrix.

    ``lambda_ * v v^T`` matches the input off-diagonals up to
    ``residual`` (Frobenius norm over off-diagonal entries); ``diag`` is
    the inferred additive diagonal.
    """

    lambda_: float
    v: np.ndarray
    diag: np.ndarray
    iterations: int
    converged: bool
    residual: float
    residual_history: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class TensorRecovery:
    """Recovered rank-one factor of the third-moment tensor.

    ``u`` is sign-aligned to the supplied hint vector, so ``lambda_t``
    is positive exactly when the positive class is the majority
    (the third central moment carries a (2 rho - 1) factor).
    """

    lambda_t: float
    u: np.ndarray
    iterations: int
    converged: bool
    residual: float


def _check_symmetric(array, ndim: int = 2) -> np.ndarray:
    """Validate a finite, symmetric M x ... x M array of ``ndim`` axes."""
    a = np.asarray(array, dtype=float)
    if a.ndim != ndim or len(set(a.shape)) != 1:
        raise InvalidInput(f"expected a square array with {ndim} axes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("array entries must be finite")
    atol = 1e-8 * max(1.0, a.max(), -a.min())
    # the adjacent axis swaps generate every permutation of the axes
    for k in range(ndim - 1):
        axes = list(range(ndim))
        axes[k], axes[k + 1] = k + 1, k
        d = a - a.transpose(axes)
        if max(d.max(), -d.min()) > atol:
            raise InvalidInput("array must be symmetric")
    return a


def _power_iteration(a: np.ndarray, tol: float, max_iter: int):
    """Signed Rayleigh quotient and unit vector of the magnitude-dominant
    eigenpair, from the normalized all-ones start (deterministic).

    A start vector annihilated by the matrix is replaced by successive
    basis vectors; some basis vector always survives a nonzero matrix.
    """
    m = a.shape[0]
    scale = np.abs(a).max()
    v = np.full(m, 1.0 / np.sqrt(m))
    stall_floor = 1e3 * np.finfo(float).eps * scale
    restart = 0
    prev_ray = None
    for _ in range(max_iter):
        w = a @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w <= stall_floor:
            if restart >= m:
                raise ZeroMatrix("all start vectors annihilated by the matrix")
            v = np.zeros(m)
            v[restart] = 1.0
            restart += 1
            prev_ray = None
            continue
        ray = float(v @ w)
        v_new = w / norm_w
        # require both value and direction to settle: the Rayleigh
        # quotient alone converges quadratically faster than the vector,
        # and the step length (not its cosine) is what bounds the error
        step = min(
            float(np.linalg.norm(v_new - v)), float(np.linalg.norm(v_new + v))
        )
        v = v_new
        if prev_ray is not None and step <= tol * 10 and (
            abs(ray - prev_ray) <= tol * max(1.0, abs(ray))
        ):
            return ray, v
        prev_ray = ray
    raise NotConverged(
        f"power iteration did not stabilize in {max_iter} iterations",
        partial=(prev_ray if prev_ray is not None else 0.0, v),
    )


def _most_positive_eigenpair(a: np.ndarray, tol: float, max_iter: int):
    """Largest (signed) eigenvalue and its eigenvector.

    The Frobenius projection onto rank-one PSD matrices needs the most
    positive eigenvalue, which differs from the magnitude-dominant one
    when a noise-heavy matrix has a large negative tail.  Shifting by
    the max absolute row sum (a spectral-radius bound) makes every
    eigenvalue nonnegative so plain power iteration lands on it.
    """
    shift = float(np.abs(a).sum(axis=1).max())
    if shift == 0.0:
        raise ZeroMatrix("cannot take an eigenpair of a zero matrix")
    ray, v = _power_iteration(a + shift * np.eye(a.shape[0]), tol, max_iter)
    return ray - shift, v


def resolve_sign(v: np.ndarray) -> np.ndarray:
    """Pick v or -v so that more entries are positive.

    Ties fall back to a nonnegative entry sum, then to a nonnegative
    first nonzero entry.
    """
    v = np.asarray(v, dtype=float)
    n_pos = int(np.sum(v > 0))
    n_neg = int(np.sum(v < 0))
    if n_pos != n_neg:
        return v if n_pos > n_neg else -v
    total = float(v.sum())
    if total != 0.0:
        return v if total > 0 else -v
    nonzero = v[v != 0]
    if nonzero.size and nonzero[0] < 0:
        return -v
    return v


def check_recoverability(v: np.ndarray) -> np.ndarray:
    """Flag coordinates with v_i^2 >= sum of the other squares.

    A flagged method dominates the vector so strongly (a near-perfect
    method among near-random ones) that the rank-one plus diagonal
    split may no longer be unique.
    """
    v = np.asarray(v, dtype=float)
    squares = v * v
    return 2.0 * squares >= squares.sum()


def _offdiag_residual(q: np.ndarray, lam: float, u: np.ndarray) -> float:
    diff = lam * np.outer(u, u) - q
    np.fill_diagonal(diff, 0.0)
    return float(np.linalg.norm(diff))


def recover_rank1_matrix(
    q2, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> Rank1Recovery:
    """Recover (lambda, v, D) with Q2 ~ lambda v v^T + diag(D).

    Only off-diagonal entries of ``q2`` are used.  Stops when successive
    leading values agree to ``tol`` (relative); raises
    :class:`NotConverged` with the partial result otherwise.  Requires
    M >= 4: three methods give exactly as many off-diagonal equations as
    unknowns, so the completion has no redundancy to validate against
    (and (q, D) vs (-q, D) already shows it is not unique).
    """
    q = _check_symmetric(q2)
    m = q.shape[0]
    if m < 4:
        raise TooFewMethods(f"rank-one recovery needs at least 4 methods, got {m}")

    hollow = q.copy()
    np.fill_diagonal(hollow, 0.0)
    if np.abs(hollow).max() <= _SIGNAL_EPS * max(1.0, np.abs(q).max()):
        raise NoSignal("all off-diagonal covariances are at machine scale")

    y = hollow
    lam_prev = None
    lam = 0.0
    u = np.full(m, 1.0 / np.sqrt(m))
    history: list[float] = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        lam, u = _most_positive_eigenpair(y, tol=POWER_TOL, max_iter=POWER_MAX_ITER)
        if lam <= 0.0:
            # a hollow matrix has trace 0, so this fires only on inputs
            # with no usable positive component at all
            raise NoSignal(
                "leading eigenvalue of the completed covariance is not positive; "
                "no nonnegative rank-one signal"
            )
        history.append(_offdiag_residual(q, lam, u))
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            converged = True
            break
        lam_prev = lam
        y = hollow + np.diag(lam * u * u)

    v = resolve_sign(u)
    result = Rank1Recovery(
        lambda_=lam,
        v=v,
        diag=np.diag(q) - lam * v * v,
        iterations=iterations,
        converged=converged,
        residual=history[-1],
        residual_history=tuple(history),
    )
    if not converged:
        # distinguish a genuine runaway from a slow approach: when the
        # iterate already assigns one method more rank-one variance than
        # the method's total rank variance, the off-diagonals are
        # dominated by a single method and no amount of iteration will
        # produce an identifiable diagonal split
        variance_cap = 1.05 * np.maximum(np.diag(q), 0.0) + 1e-9 * max(
            1.0, float(np.abs(q).max())
        )
        if np.any(lam * u * u > variance_cap):
            raise NoSignal(
                "rank-one fit exceeds a method's total variance; the "
                "covariance is dominated by a single method and the "
                "decomposition is not recoverable"
            )
        raise NotConverged(
            f"rank-one recovery did not converge in {max_iter} iterations",
            partial=result,
        )
    return result


def _contract_twice(tensor_flat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """T(., u, u) via one matvec on the (M, M*M) unfolding."""
    return tensor_flat @ np.multiply.outer(u, u).ravel()


def _hopm(tensor: np.ndarray, u0: np.ndarray, tol: float, max_iter: int):
    """Symmetric higher-order power iteration for the dominant rank-one factor.

    Plain iteration can fall into a period-2 cycle when no direction
    dominates (noise-dominated tensors); a detected cycle is escaped by
    averaging the two alternating iterates.  The caller's outer loop
    owns the final convergence judgement.
    """
    m = tensor.shape[0]
    flat = tensor.reshape(m, m * m)
    scale = max(tensor.max(), -tensor.min())
    u = u0
    u_prev = None
    stall_floor = 1e3 * np.finfo(float).eps * scale
    restart = -1
    lam_prev = None
    for _ in range(max_iter):
        w = _contract_twice(flat, u)
        norm_w = float(np.linalg.norm(w))
        if norm_w <= stall_floor:
            restart += 1
            if restart >= m:
                raise NoSignal("tensor annihilates every start vector")
            u = np.zeros(m)
            u[restart] = 1.0
            u_prev = None
            lam_prev = None
            continue
        lam = float(u @ w)
        u_next = w / norm_w
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return u_next
        if u_prev is not None and abs(float(u_next @ u_prev)) > 1.0 - 1e-12:
            # u_{k+2} = u_k but u_{k+1} != u_k: split the cycle
            mid = u + u_next
            norm_mid = float(np.linalg.norm(mid))
            if norm_mid > 1e-12:
                return mid / norm_mid
            return u_next
        lam_prev = lam
        u_prev = u
        u = u_next
    return u  # caller checks outer convergence


def recover_rank1_tensor(
    q3, v_hint: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> TensorRecovery:
    """Recover the signed rank-one factor of the third-moment tensor.

    ``q3`` is a finite, symmetric M x M x M array such as
    :func:`summa.moments.third_moment_offdiag` returns.  Only its
    distinct-index entries are read; the repeated-index ones are ignored.
    Alternates a higher-order power iteration with re-imputing the
    non-distinct-index entries, in a working copy, from the current
    rank-one iterate; ``q3`` itself is never written.  The
    final direction is sign-aligned to ``v_hint`` (u . hint >= 0) and
    ``lambda_t`` is evaluated on that aligned direction, so its sign is
    meaningful relative to the hint.  Requires M >= 5; with fewer
    methods the off-diagonal triples carry no redundancy over the
    unknowns (the 4-method case has exactly 4 triples for 5 unknowns).
    """
    hint = np.asarray(v_hint, dtype=float)
    m = hint.size
    if m < 5:
        raise TooFewMethods(f"tensor recovery needs at least 5 methods, got {m}")
    norm_hint = np.linalg.norm(hint)
    if not np.isfinite(norm_hint) or abs(norm_hint - 1.0) > 1e-6:
        raise InvalidInput("v_hint must be a unit vector")

    t = _check_symmetric(q3, ndim=3)
    if t.shape[0] != m:
        raise InvalidInput(f"third-moment array of shape {t.shape} does not match {m} methods")
    i, j, l = np.ogrid[:m, :m, :m]
    mask = (i != j) & (i != l) & (j != l)
    peak = np.abs(t[mask]).max()
    if peak <= _SIGNAL_EPS:
        raise NoSignal("all off-diagonal third moments are at machine scale")

    # imputation writes to a working copy, never to the caller's array
    completed = t.copy()
    a, b, c = np.nonzero(~mask)
    u = hint / norm_hint
    lam = 0.0
    lam_prev = None
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        # impute entries with repeated indices from the current iterate
        completed[a, b, c] = lam * (u[a] * (u[b] * u[c]))
        u = _hopm(completed, u, tol=POWER_TOL, max_iter=HOPM_MAX_ITER)
        lam = float(u @ _contract_twice(completed.reshape(m, m * m), u))
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            converged = True
            break
        lam_prev = lam

    if float(u @ hint) < 0.0:
        u = -u
        lam = -lam
    diff = (lam * np.multiply.outer(u, np.multiply.outer(u, u)) - t)[mask]
    result = TensorRecovery(
        lambda_t=lam,
        u=u,
        iterations=iterations,
        converged=converged,
        residual=float(np.linalg.norm(diff)),
    )
    if not converged:
        raise NotConverged(
            f"tensor recovery did not converge in {max_iter} iterations",
            partial=result,
        )
    return result
