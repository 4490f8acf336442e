"""Rank-one recovery from off-diagonal moment observations.

The covariance of conditionally independent rank predictions equals a
rank-one matrix plus an unknown diagonal.  Only the off-diagonal entries
are trusted, so the matrix stage fits lambda u u^T to the off-diagonals
alone by one-factor minimum-residual factor analysis (Harman & Jones
1966, Psychometrika).  With H the hollow covariance and u a unit
vector, each step takes one product H u and updates

    u <- normalise(H u / (1 - u o u)),   lambda = u' H u / (1 - sum u^4)

whose fixed points, (H u)_i = lambda u_i (1 - u_i^2), are the stationary
points of the off-diagonal squared mismatch.  The same product gives
that mismatch in O(M), ||H||_F^2 - (u' H u)^2 / (1 - sum u^4), and a step
that raises it is halved until it does not.  The fit starts from the
normalized all-ones vector and stops when a step moves no entry of u by
more than tol / 100.

At a fixed point the completion Y = H + diag(lambda u o u) equals
lambda u u' - R, with R the off-diagonal residual, and Y u = lambda u.
By Weyl's inequality every other eigenvalue of Y is at most
||R||_2 <= ||R||_F, so a lambda above ||R||_F is Y's top eigenvalue.
When it is not, the fit may sit below the top (equal row sums make the
all-ones start a fixed point), so it is repeated from the largest
off-diagonal pair (e_i +- e_j)/sqrt 2, and the lower residual is kept.

The third-moment tensor needs no fit of its own.  Under conditional
independence its rank-one factor has the direction of the covariance
factor v, so only its scale is unknown, and the least-squares scale
over the distinct-index entries is a closed form in power sums of the
centred ranks, O(MN).  The tensor is never built.  A block jackknife,
whose leave-out covariance fits take a few steps of the same update,
corrects the bias that fixing v at its noisy estimate puts on the
scale, and gives it a standard error.  Its leave-out covariances are
applied, never formed, from the Gram matrix G of the matrix stage's
covariance and the block-grouped C of :class:`summa.moments.CentredRanks`,
as (G - C_b C_b^T) v re-centred; the triple sums take one more pass.

Recovery is only well-posed up to a global sign; :func:`resolve_sign`
picks the orientation under which most methods look better than random,
and :func:`check_recoverability` flags coordinates so dominant that the
diagonal/rank-one split may not be unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, NoSignal, NotConverged, TooFewMethods
from .moments import CentredRanks

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000
# fewer methods leave the completion no redundancy to validate against
MATRIX_MIN_METHODS = 4
TENSOR_MIN_METHODS = 5

# Each leave-one-block-out covariance fit of the tensor stage's
# jackknife takes REFIT_STEPS steps of the matrix stage's update from the
# full fit.
REFIT_STEPS = 5

# Halvings of a matrix-stage step that raises the residual.
_MAX_HALVINGS = 50

# Off-diagonal magnitudes below this (relative) scale are treated as no signal.
_SIGNAL_EPS = 1e-13

# Methods times samples per chunk of the tensor stage's pass over C.
_CHUNK = 1 << 13

# Rows per tile of the symmetry check.
_SYMMETRY_TILE = 128


@dataclass(frozen=True, eq=False)
class Rank1Recovery:
    """Recovered rank-one factor of a covariance matrix.

    ``lambda_ * v v^T`` matches the input off-diagonals up to
    ``residual`` (Frobenius norm over off-diagonal entries); ``diag`` is
    the inferred additive diagonal.  ``v`` is the run's one unit method
    vector, read-only: the tensor stage's ``u`` and the report's
    ``weights`` are this array.
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
    """Scales of the moments along the covariance direction ``u``.

    ``lambda_t`` is the least-squares scale of lambda_t u (x) u (x) u over
    the distinct-index third moments and ``lambda_e`` that of
    lambda_e u u^T over the off-diagonal covariances, both
    bias-corrected by the block jackknife; ``lambda_t_se`` is the
    jackknife standard error of ``lambda_t`` (NaN for a single sample,
    which leaves nothing to leave out).  ``u`` is the unit hint as given, so
    ``lambda_t`` is positive exactly when the positive class is the
    majority (the third central moment carries a (2 rho - 1) factor).
    """

    lambda_t: float
    lambda_e: float
    lambda_t_se: float
    u: np.ndarray

    @property
    def z(self) -> float:
        """``lambda_t`` in standard errors, the distance from balance."""
        if self.lambda_t_se == 0.0:
            return math.copysign(math.inf, self.lambda_t)
        return self.lambda_t / self.lambda_t_se


def _check_symmetric(matrix) -> tuple[np.ndarray, float]:
    """Validate a finite, symmetric M x M matrix; returns it and max |entry|."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    # a NaN or an infinity makes the largest magnitude non-finite; an
    # empty matrix has 0, and too few methods for the caller
    peak = float(np.maximum(a.max(initial=0.0), -a.min(initial=0.0)))
    if not math.isfinite(peak):
        raise InvalidInput("matrix entries must be finite")
    # each row tile against the transposed column tile at and right of
    # the diagonal meets every pair (i, j) once, so max |a_ij - a_ji|
    # comes without forming a - a^T
    asymmetry = 0.0
    for lo in range(0, a.shape[0], _SYMMETRY_TILE):
        hi = lo + _SYMMETRY_TILE
        d = a[lo:hi, lo:] - a[lo:, lo:hi].T
        asymmetry = max(asymmetry, d.max(), -d.min())
    if asymmetry > 1e-8 * max(1.0, peak):
        raise InvalidInput("matrix must be symmetric")
    return a, peak


def check_unit(v, name: str) -> np.ndarray:
    """Return ``v`` as a float array, undivided, after checking that it is
    finite and of unit norm to 1e-6."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or abs(norm - 1.0) > 1e-6:
        raise InvalidInput(f"{name} must be a unit vector")
    return v


def check_iteration_controls(tol: float, max_iter: int):
    """Reject a ``max_iter`` below 1 (a recovery reports its last
    iterate, so it needs one) and a ``tol`` that is not finite and
    positive (no iterate could meet it, or every iterate would)."""
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInput(f"tol must be finite and positive, got {tol}")


def _factor_step(hu: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one-factor minimum-residual update normalise(H u / (1 - u o u))
    of the unit factor ``u``, given ``hu`` = H u for its hollow
    covariance H; both may hold a batch of factors in their rows.

    Setting the gradient of sum_{i != j} (H_ij - lambda u_i u_j)^2 in u
    to zero, with lambda at its least-squares value along u, gives
    (H u)_i = lambda u_i (1 - u_i^2), so the update's fixed points are
    the stationary points of the off-diagonal fit.
    """
    w = hu / (1.0 - u * u)
    squares = (w * w).sum(axis=-1, keepdims=True)
    if not (squares > 0.0).all():
        raise NoSignal("the covariance annihilates the factor")
    w /= np.sqrt(squares)
    return w


def _fit_factor(hollow: np.ndarray, u: np.ndarray, tol: float, max_iter: int):
    """Run :func:`_factor_step` on ``hollow`` from the unit vector ``u``.

    Each step takes one product ``hollow @ u``, which also gives the
    squared off-diagonal residual at the least-squares lambda along u,
    ||H||_F^2 - (u^T H u)^2 / (1 - sum u^4), in O(M).  A step that
    raises it is halved until it does not.  Stops when the update moves
    no entry by more than ``tol`` / 100, and raises :class:`NoSignal`
    when a step puts the whole factor on one method, where lambda is
    undefined.  Returns ``(lambda, u, iterations, converged,
    residual_history)``.
    """
    h2 = float(np.vdot(hollow, hollow))
    # rises within the rounding of the squared residual do not count
    slack = 1e3 * np.finfo(float).eps * h2
    # np.dot runs the same BLAS products as @ with half its call overhead
    hu = np.dot(hollow, u)
    u2 = u * u
    a = float(np.dot(u, hu))
    res2 = h2 - a * a / (1.0 - float(np.dot(u2, u2)))
    history = []
    for iterations in range(1, max_iter + 1):
        target = _factor_step(hu, u)
        new = target
        for halving in range(_MAX_HALVINGS):
            hu_new = np.dot(hollow, new)
            a = float(np.dot(new, hu_new))
            u2 = new * new
            # the squared off-diagonal norm of u u^T, 0 when u is on one method
            off2 = 1.0 - float(np.dot(u2, u2))
            if not off2 > 0.0:
                raise NoSignal("the update puts the whole factor on one method")
            lam = a / off2
            res2_new = h2 - lam * a
            if res2_new <= res2 + slack:
                break
            new = u + 0.5**(halving + 1) * (target - u)
            new /= math.sqrt(np.dot(new, new))
        converged = float(np.abs(target - u).max()) <= tol / 100
        u, hu, res2 = new, hu_new, res2_new
        history.append(math.sqrt(max(res2, 0.0)))
        if converged:
            break
    return lam, u, iterations, converged, history


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
    diff = np.outer(lam * u, u)
    diff -= q
    np.fill_diagonal(diff, 0.0)
    return math.sqrt(np.vdot(diff, diff))


def recover_rank1_matrix(
    q2, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> Rank1Recovery:
    """Recover (lambda, v, D) with Q2 ~ lambda v v^T + diag(D).

    Only off-diagonal entries of ``q2`` are used.  Stops when an update
    step moves no entry of v by more than ``tol`` / 100; raises
    :class:`NotConverged` with the partial result after ``max_iter``
    steps otherwise.  Requires M >= 4: three methods give exactly as
    many off-diagonal equations as unknowns, so the completion has no
    redundancy to validate against (and (q, D) vs (-q, D) already shows
    it is not unique).
    """
    check_iteration_controls(tol, max_iter)
    q, peak = _check_symmetric(q2)
    m = q.shape[0]
    if m < MATRIX_MIN_METHODS:
        raise TooFewMethods(
            f"rank-one recovery needs at least {MATRIX_MIN_METHODS} methods, got {m}")

    hollow = q.copy()
    np.fill_diagonal(hollow, 0.0)
    if np.abs(hollow).max() <= _SIGNAL_EPS * max(1.0, peak):
        raise NoSignal("all off-diagonal covariances are at machine scale")

    lam, u, iterations, converged, history = _fit_factor(
        hollow, np.full(m, 1.0 / np.sqrt(m)), tol, max_iter)
    residual = _offdiag_residual(q, lam, u)
    if lam <= residual:
        # lambda above ||R||_F would make it the top eigenvalue of the
        # completion (see the module docstring).  Without that proof the
        # fit may sit below the top, as the all-ones start does when the
        # row sums are equal, so fit again from the largest pair
        # (e_i +- e_j)/sqrt 2 and keep the lower residual
        i, j = divmod(int(np.abs(hollow).argmax()), m)
        pair = np.zeros(m)
        pair[i], pair[j] = math.sqrt(0.5), math.copysign(math.sqrt(0.5), hollow[i, j])
        refit = _fit_factor(hollow, pair, tol, max_iter)
        refit_residual = _offdiag_residual(q, refit[0], refit[1])
        if refit_residual < residual:
            (lam, u, iterations, converged, history), residual = refit, refit_residual
    if not lam > 0.0:
        # the residual is even in lambda, so a fit may settle on a
        # negative scale, which no rank-one signal gives
        raise NoSignal("the fitted covariance scale is not positive; "
                       "no nonnegative rank-one signal")
    history[-1] = residual

    v = resolve_sign(u)
    v = v / float(np.linalg.norm(v))
    v.setflags(write=False)
    result = Rank1Recovery(
        lambda_=lam,
        v=v,
        diag=np.diag(q) - lam * v * v,
        iterations=iterations,
        converged=converged,
        residual=residual,
        residual_history=tuple(history),
    )
    if not converged:
        # distinguish a genuine runaway from a slow approach: when the
        # iterate already assigns one method more rank-one variance than
        # the method's total rank variance, the off-diagonals are
        # dominated by a single method and no amount of iteration will
        # produce an identifiable diagonal split
        variance_cap = 1.05 * np.maximum(np.diag(q), 0.0) + 1e-9 * max(1.0, peak)
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



def _from_power_sums(s, q, p):
    """The sum of x_i x_j x_l over distinct (i, j, l), from the power sums
    s, q and p of x: s^3 - 3 s q + 2 p (inclusion-exclusion over i = j,
    i = l and j = l)."""
    return s * (s * s - 3.0 * q) + 2.0 * p


def _distinct_triples(x: np.ndarray) -> np.ndarray:
    """Per row, the sum of x_i x_j x_l over distinct (i, j, l)."""
    return _from_power_sums(x.sum(axis=1), (x * x).sum(axis=1), (x * x * x).sum(axis=1))


def _triple_sums(blocks: np.ndarray, vectors: np.ndarray):
    """Sums of x_i x_j x_l over distinct (i, j, l), x = v o c_k, per
    row v and block of samples.

    Entry (r, b) of the first result adds them up over the samples of
    ``blocks[b]`` for row r; the second result bounds the rounding in the
    last row's total.  The blocks are taken in chunks along their sample
    axis, so the temporaries stay small beside them; a zero-padded
    sample adds exactly 0.
    """
    count, m, length = blocks.shape
    rows = vectors.shape[0]
    squares = vectors * vectors
    cubes = squares * vectors
    width = max(1, _CHUNK // (max(m, rows) * count))
    sums = scale = 0.0
    for lo in range(0, length, width):
        # every block's chunk in one M x (B w) copy: one product per power sum
        x = blocks[:, :, lo:lo + width].transpose(1, 0, 2).reshape(m, -1)
        s = vectors @ x
        x2 = x * x
        q = squares @ x2
        x2 *= x
        p = cubes @ x2
        s_abs = np.abs(s[-1])
        scale += float((s_abs * (s_abs * s_abs + 3.0 * q[-1]) + 2.0 * np.abs(p[-1])).sum())
        sums += _from_power_sums(s, q, p).reshape(rows, count, -1).sum(axis=2)
    return sums, scale


def _jackknife(full: float, leave_outs: np.ndarray) -> tuple[float, float]:
    """Bias-corrected value and standard error from the leave-one-block-out
    values (Efron & Tibshirani 1993, ch. 11)."""
    k = leave_outs.size
    mean = float(leave_outs.mean())
    spread = leave_outs - mean
    return k * full - (k - 1) * mean, math.sqrt((k - 1) / k * float(spread @ spread))


def recover_rank1_tensor(centred: CentredRanks, v_hint: np.ndarray) -> TensorRecovery:
    """Fit the scale of the third-moment tensor along ``v_hint``.

    ``centred`` is the :class:`summa.moments.CentredRanks` of the
    centred rows C, from :func:`summa.moments.third_moment_offdiag`.
    The tensor is (1/N) sum_k c_k (x) c_k (x) c_k, of which only the
    distinct-index entries are used.
    Under conditional independence its rank-one factor has the
    direction of the covariance factor, so only scales are fitted, by
    least squares along u = ``v_hint``, which must be a unit vector to
    1e-6 and is used as given (it becomes the fit's ``u``):

        lambda_e = sum_{i != j} Q_ij u_i u_j / (1 - sum u^4)
        lambda_t = mean_k (s^3 - 3 s q + 2 p) / (1 - 3 sum u^4 + 2 sum u^6)

    with s, q and p the power sums of x_k = u o c_k over the methods.

    Fixing u at its noisy estimate shrinks |lambda_t|, so both scales
    are bias-corrected by a jackknife over the ``JACKKNIFE_BLOCKS``
    blocks of samples, k mod blocks.  Each leave-one-block-out covariance,
    re-centred on its own samples, is applied without being formed; its
    (lambda_e, u) takes ``REFIT_STEPS`` steps of the matrix stage's
    update from the full fit; and all leave-out lambda_t come from one
    more pass over the blocks.
    Requires M >= 5: with fewer methods one to four distinct triples
    would carry the whole fit.  Raises :class:`NoSignal` when the
    covariances or the distinct-index third moments along u vanish, or
    when a leave-out fit collapses onto fewer than three methods, which
    leaves its scales undefined.
    """
    u = check_unit(v_hint, "v_hint")
    m = u.size
    if m < TENSOR_MIN_METHODS:
        raise TooFewMethods(f"fewer than {TENSOR_MIN_METHODS} methods for the tensor stage")

    blocks, n, gram = centred.blocks, centred.n, centred.gram
    if gram.shape[0] != m:
        raise InvalidInput(f"centred ranks of {gram.shape[0]} methods do not match {m} methods")

    # C is centred, so its second moments are the covariances
    hollow = gram / n
    np.fill_diagonal(hollow, 0.0)
    u_cov_u = float(u @ hollow @ u)
    if not u_cov_u > 0.0:
        raise NoSignal("the off-diagonal covariances have no positive scale along v_hint")
    lambda_e = u_cov_u / (1.0 - float(np.sum(u**4)))

    # the hollow leave-one-block-out covariances, each applied to its own
    # vector; a single sample leaves nothing out
    left = len(blocks) if n > 1 else 0
    leave = blocks[:left]
    kept = n - np.bincount(np.arange(n) % len(blocks))[:left, None]
    means = (centred.block_sums.sum(axis=0) - centred.block_sums[:left]) / kept
    diag = (np.diagonal(gram) - centred.block_squares[:left]) / kept - means * means

    def leave_out_products(vs):
        # cov_b v = ((G - C_b C_b^T) v) / kept_b - m_b (m_b . v) - diag_b o v
        inner = np.matmul(np.matmul(vs[:, None, :], leave), leave.transpose(0, 2, 1))[:, 0]
        mean_v = (means * vs).sum(axis=1, keepdims=True)
        return (vs @ gram - inner) / kept - means * mean_v - diag * vs

    vs = np.tile(u, (left, 1))
    cov_v = leave_out_products(vs)
    for _ in range(REFIT_STEPS):
        vs = _factor_step(cov_v, vs)
        cov_v = leave_out_products(vs)
    # the squared norms of v v^T off the diagonal and of v (x) v (x) v on
    # distinct indices: 0 with fewer than two, or three, non-zero entries
    offs2 = 1.0 - (vs**4).sum(axis=1)
    norms_t = _distinct_triples(vs * vs)
    if not ((offs2 > 0.0).all() and (norms_t > 0.0).all()):
        raise NoSignal("a leave-out fit collapses onto fewer than three methods")
    lams = (vs * cov_v).sum(axis=1) / offs2

    sums, scale = _triple_sums(blocks, np.vstack([vs, u]))
    total = float(sums[-1].sum())
    if abs(total) <= 1e3 * np.finfo(float).eps * scale:
        raise NoSignal("the distinct-index third moments vanish along v_hint")
    # the denominator is the squared norm of u (x) u (x) u on distinct indices
    lambda_t = total / n / float(_distinct_triples((u * u)[None])[0])
    if not left:
        return TensorRecovery(lambda_t, lambda_e, math.nan, u)

    # re-centre each leave-out's triple sum on its own mean ybar, with
    # e3 the sum over distinct (i, j, l) and y = v o c:
    # mean e3(y - ybar) = mean e3(y) - 3 sum_d Cov(y_i, y_j) ybar_l - e3(ybar)
    raw = (sums[:-1].sum(axis=1) - np.diagonal(sums[:-1])) / kept[:, 0]
    ybar = vs * means
    total_ybar = ybar.sum(axis=1)
    # sum_d Cov(y_i, y_j) ybar_l = sum_{i != j} Cov(y_i, y_j) (total - ybar_i - ybar_j)
    cov_sum = total_ybar * (vs * cov_v).sum(axis=1) - 2.0 * (cov_v * vs * ybar).sum(axis=1)
    central = raw - 3.0 * cov_sum - _distinct_triples(ybar)
    lams_t = central / norms_t

    lambda_e, _ = _jackknife(lambda_e, lams)
    lambda_t, lambda_t_se = _jackknife(lambda_t, lams_t)
    if not lambda_e > 0.0:
        raise NoSignal("the bias-corrected covariance scale is not positive")
    return TensorRecovery(lambda_t, lambda_e, lambda_t_se, u)
