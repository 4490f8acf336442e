"""Rank-one recovery from off-diagonal moment observations.

The covariance of conditionally independent rank predictions equals a
rank-one matrix plus an unknown diagonal.  Only the off-diagonal entries
are trusted; the diagonal is inferred by alternating between a dominant
eigenpair computation and re-imputing the diagonal from the current
rank-one iterate:

    Y <- Q - diag(Q) + diag(lambda * u u^T)
    (lambda, u) <- most positive eigenpair of Y

which is projected gradient descent (unit step) on the off-diagonal
squared mismatch over the set of symmetric PSD rank-one matrices, so the
off-diagonal residual never increases.  Each eigen-solve is a shifted
power iteration that continues from the current iterate u (the first
from the normalized all-ones vector) and applies Y through the hollow
Q - diag(Q) and the imputed diagonal, so Y is never built.  The shift
is a proven bound on -lambda_min(Y), which makes Y + shift I PSD.
After the first step it is the Frobenius norm of the last off-diagonal
residual R: Y = lambda u u^T - R, so by Weyl's inequality
lambda_min(Y) >= -||R||_2 >= -||R||_F.  The first step takes the smaller
of the largest absolute row sum of the hollow (Gershgorin) and the same
Weyl bound along the all-ones start; when it returns less than
||hollow||_F / sqrt 2, the value above which an eigenvalue must be the
top one, it is solved again from the largest off-diagonal pair.  The
residual shrinks as the fit does, so the iteration's rate
(lambda_2 + shift) / (lambda_1 + shift) improves with it.

The third-moment tensor needs no such iteration.  Under conditional
independence its rank-one factor has the direction of the covariance
factor v, so only its scale is unknown, and the least-squares scale
over the distinct-index entries is a closed form in power sums of the
centred ranks, O(MN).  The tensor is never built.  A block jackknife
corrects the bias that fixing v at its noisy estimate puts on the
scale, and gives it a standard error.

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

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000
POWER_TOL = 1e-10
POWER_MAX_ITER = 100_000
# fewer methods leave the completion no redundancy to validate against
MATRIX_MIN_METHODS = 4
TENSOR_MIN_METHODS = 5

# The tensor stage's jackknife: samples k mod JACKKNIFE_BLOCKS form the
# blocks, and each leave-one-block-out covariance fit takes REFIT_STEPS
# alternating-map steps from the full fit.
JACKKNIFE_BLOCKS = 20
REFIT_STEPS = 5

# Off-diagonal magnitudes below this (relative) scale are treated as no signal.
_SIGNAL_EPS = 1e-13

# Methods times samples per chunk of the tensor stage's pass over C.
_CHUNK = 1 << 13


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
    """Scales of the moments along the covariance direction ``u``.

    ``lambda_t`` is the least-squares scale of lambda_t u (x) u (x) u over
    the distinct-index third moments and ``lambda_e`` that of
    lambda_e u u^T over the off-diagonal covariances, both
    bias-corrected by the block jackknife; ``lambda_t_se`` is the
    jackknife standard error of ``lambda_t`` (NaN for a single sample,
    which leaves nothing to leave out).  ``u`` is the unit hint, so
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


def _check_symmetric(matrix) -> np.ndarray:
    """Validate a finite, symmetric M x M matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix entries must be finite")
    atol = 1e-8 * max(1.0, a.max(), -a.min())
    d = a - a.T
    if max(d.max(), -d.min()) > atol:
        raise InvalidInput("matrix must be symmetric")
    return a


def check_iteration_controls(tol: float, max_iter: int):
    """Reject a ``max_iter`` below 1 (a recovery reports its last
    iterate, so it needs one) and a ``tol`` that is not finite and
    positive (no iterate could meet it, or every iterate would)."""
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInput(f"tol must be finite and positive, got {tol}")


def _leading_eigenpair(hollow: np.ndarray, shift: float, d: np.ndarray,
                       v: np.ndarray):
    """Most positive eigenvalue of hollow + diag(d) and its unit
    eigenvector, by power iteration from the unit vector ``v``.

    The Frobenius projection onto rank-one PSD matrices needs the most
    positive eigenvalue, which differs from the magnitude-dominant one
    when a noise-heavy matrix has a large negative tail.  ``shift``
    must make hollow + diag(d) + shift I positive semidefinite; then
    every eigenvalue is nonnegative and plain power iteration lands on
    the most positive one, at the rate (lambda_2 + shift) /
    (lambda_1 + shift), so the smaller the proven bound the faster.
    :func:`recover_rank1_matrix` passes the Frobenius norm of the last
    off-diagonal residual R: with d = lambda u o u the matrix is
    lambda u u' - R, whose least eigenvalue is at least -||R||_2 by
    Weyl's inequality.  The shifted matrix is applied as
    hollow @ v + (d + shift) * v and never built.
    """
    diagonal = d + shift
    stall_floor = 1e3 * np.finfo(float).eps * float(diagonal.max())
    prev_ray = None
    for _ in range(POWER_MAX_ITER):
        w = hollow @ v + diagonal * v
        norm_w = math.sqrt(w @ w)
        if norm_w <= stall_floor:
            # the shifted matrix is PSD, so v lies in its null space.  A
            # warm start u cannot: the completion is lambda u u' - R with
            # R the last off-diagonal residual and shift = ||R||_F, so
            # u' (shifted) u >= lambda - ||R||_2 + ||R||_F >= lambda > 0;
            # nor can (e_i +- e_j)/sqrt 2, whose value is |hollow_ij| + shift.
            # Only the all-ones start can, when every row of hollow sums
            # to -shift.  The Weyl shift exceeds minus that sum unless
            # hollow is 0, so the shift is the Gershgorin one and all
            # off-diagonals are nonpositive, which no rank-one signal
            # gives for M >= 3
            raise NoSignal("the start vector is annihilated by the shifted covariance")
        ray = float(v @ w)
        v_new = w / norm_w
        # require both value and direction to settle: the Rayleigh
        # quotient alone converges quadratically faster than the vector,
        # and the step length (not its cosine) is what bounds the error.
        # The shifted matrix is PSD, so v . w >= 0 and v never flips sign
        step = v_new - v
        v = v_new
        if prev_ray is not None and math.sqrt(step @ step) <= POWER_TOL * 10 and (
            abs(ray - prev_ray) <= POWER_TOL * max(1.0, abs(ray))
        ):
            return ray - shift, v
        prev_ray = ray
    raise NotConverged(f"power iteration did not stabilize in {POWER_MAX_ITER} iterations")


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
    check_iteration_controls(tol, max_iter)
    q = _check_symmetric(q2)
    m = q.shape[0]
    if m < MATRIX_MIN_METHODS:
        raise TooFewMethods(
            f"rank-one recovery needs at least {MATRIX_MIN_METHODS} methods, got {m}")

    hollow = q.copy()
    np.fill_diagonal(hollow, 0.0)
    magnitudes = np.abs(hollow)
    if magnitudes.max() <= _SIGNAL_EPS * max(1.0, np.abs(q).max()):
        raise NoSignal("all off-diagonal covariances are at machine scale")

    lam_prev = None
    lam = 0.0
    u = np.full(m, 1.0 / np.sqrt(m))
    d = np.zeros(m)
    # The first shift is the smaller of two bounds on -lambda_min(hollow):
    # the largest absolute row sum (Gershgorin), and by Weyl's inequality
    # ||E||_F - min(0, lambda_0) with hollow = lambda_0 u u' + E along the
    # all-ones start u.  Every later shift is the last residual; see below.
    lam0 = float(hollow.sum()) / m
    gershgorin = float(magnitudes.sum(axis=1).max())
    shift = min(gershgorin, float(np.linalg.norm(hollow - lam0 / m)) - min(0.0, lam0))
    # the squares of hollow's eigenvalues sum to ||hollow||_F^2, so no
    # eigenvalue exceeds one of at least ||hollow||_F / sqrt 2, a bound
    # that is at least max |hollow_ij|
    top_bound = float(np.linalg.norm(hollow)) / math.sqrt(2.0)
    history: list[float] = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        lam, u = _leading_eigenpair(hollow, shift, d, u)
        if iterations == 1 and lam < top_bound:
            # the all-ones start may have no component along the top
            # eigenvector, and the iteration then settles below it.  Solve
            # again from the largest pair (e_i +- e_j)/sqrt 2 and keep the
            # larger eigenvalue; within the solver's tolerance the two are
            # the same, and all-ones stays
            i, j = divmod(int(magnitudes.argmax()), m)
            pair = np.zeros(m)
            pair[i], pair[j] = math.sqrt(0.5), math.copysign(math.sqrt(0.5), hollow[i, j])
            lam_pair, u_pair = _leading_eigenpair(hollow, shift, d, pair)
            if lam_pair - lam > POWER_TOL * max(1.0, abs(lam)):
                lam, u = lam_pair, u_pair
        if lam <= 0.0:
            # a hollow matrix has trace 0, so this fires only on inputs
            # with no usable positive component at all
            raise NoSignal(
                "leading eigenvalue of the completed covariance is not positive; "
                "no nonnegative rank-one signal"
            )
        residual = _offdiag_residual(q, lam, u)
        history.append(residual)
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            converged = True
            break
        lam_prev = lam
        d = lam * u * u
        # the next completion is lambda u u' - R, with R this residual's
        # matrix (zero diagonal), so its least eigenvalue is at least
        # -||R||_2 >= -||R||_F (Weyl; lambda > 0)
        shift = residual

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


def _from_power_sums(s, q, p):
    """The sum of x_i x_j x_l over distinct (i, j, l), from the power sums
    s, q and p of x: s^3 - 3 s q + 2 p (inclusion-exclusion over i = j,
    i = l and j = l)."""
    return s * (s * s - 3.0 * q) + 2.0 * p


def _distinct_triples(x: np.ndarray) -> np.ndarray:
    """Per row, the sum of x_i x_j x_l over distinct (i, j, l)."""
    return _from_power_sums(x.sum(axis=1), (x * x).sum(axis=1), (x * x * x).sum(axis=1))


def _triple_sums(c: np.ndarray, vectors: np.ndarray, blocks: int):
    """Sums of x_i x_j x_l over distinct (i, j, l), x = v o c_k, per
    row v and block of samples.

    Entry (r, b) of the first result adds them up over the samples
    k = b mod ``blocks`` for row r; the second result bounds the
    rounding in the last row's total.  The samples are taken in chunks
    that start at multiples of ``blocks``, so the temporaries stay
    small beside C.
    """
    m, n = c.shape
    rows = vectors.shape[0]
    squares = vectors * vectors
    cubes = squares * vectors
    width = max(1, _CHUNK // (max(m, rows) * blocks)) * blocks
    sums = np.zeros((rows, blocks))
    scale = 0.0
    for lo in range(0, n, width):
        x = c[:, lo:lo + width]
        s = vectors @ x
        x2 = x * x
        q = squares @ x2
        x2 *= x
        p = cubes @ x2
        s_abs = np.abs(s[-1])
        scale += float((s_abs * (s_abs * s_abs + 3.0 * q[-1]) + 2.0 * np.abs(p[-1])).sum())
        t = _from_power_sums(s, q, p)
        w = x.shape[1]
        whole = w - w % blocks
        sums += t[:, :whole].reshape(rows, -1, blocks).sum(axis=1)
        sums[:, :w - whole] += t[:, whole:]
    return sums, scale


def _jackknife(full: float, leave_outs: np.ndarray) -> tuple[float, float]:
    """Bias-corrected value and standard error from the leave-one-block-out
    values (Efron & Tibshirani 1993, ch. 11)."""
    k = leave_outs.size
    mean = float(leave_outs.mean())
    spread = leave_outs - mean
    return k * full - (k - 1) * mean, math.sqrt((k - 1) / k * float(spread @ spread))


def recover_rank1_tensor(c, v_hint: np.ndarray) -> TensorRecovery:
    """Fit the scale of the third-moment tensor along ``v_hint``.

    ``c`` is a finite M x N matrix of centred rank rows such as
    :func:`summa.moments.third_moment_offdiag` returns; the tensor is
    (1/N) sum_k c_k (x) c_k (x) c_k, of which only the distinct-index
    entries are used (a noiseless a (x) a (x) a is ``a[:, None]``).
    Under conditional independence its rank-one factor has the
    direction of the covariance factor, so only scales are fitted, by
    least squares along u = ``v_hint``:

        lambda_e = sum_{i != j} Q_ij u_i u_j / (1 - sum u^4)
        lambda_t = mean_k (s^3 - 3 s q + 2 p) / (1 - 3 sum u^4 + 2 sum u^6)

    with s, q and p the power sums of x_k = u o c_k over the methods.

    Fixing u at its noisy estimate shrinks |lambda_t|, so both scales
    are bias-corrected by a jackknife over ``JACKKNIFE_BLOCKS`` blocks of
    samples, k mod blocks.  Each leave-one-block-out covariance comes
    from per-block Gram matrices, re-centred on its own samples; its
    (lambda_e, u) takes ``REFIT_STEPS`` alternating-map steps from the
    full fit; and all leave-out lambda_t come from one more pass over C.
    Requires M >= 5: with fewer methods one to four distinct triples
    would carry the whole fit.  Raises :class:`NoSignal` when the
    covariances or the distinct-index third moments along u vanish.
    """
    hint = np.asarray(v_hint, dtype=float)
    m = hint.size
    if m < TENSOR_MIN_METHODS:
        raise TooFewMethods(
            f"tensor recovery needs at least {TENSOR_MIN_METHODS} methods, got {m}")
    norm_hint = np.linalg.norm(hint)
    if not np.isfinite(norm_hint) or abs(norm_hint - 1.0) > 1e-6:
        raise InvalidInput("v_hint must be a unit vector")

    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != m or c.shape[1] < 1:
        raise InvalidInput(f"centred rank matrix of shape {c.shape} does not match {m} methods")
    if not np.all(np.isfinite(c)):
        raise InvalidInput("centred rank entries must be finite")
    n = c.shape[1]
    u = hint / norm_hint

    # one pass over C for the Gram matrix and column sum of every block
    blocks = min(JACKKNIFE_BLOCKS, n)
    grams = np.empty((blocks, m, m))
    block_sums = np.empty((blocks, m))
    for b in range(blocks):
        # a contiguous copy of the block, which matmul takes several times faster
        part = np.ascontiguousarray(c[:, b::blocks])
        grams[b] = part @ part.T
        block_sums[b] = part.sum(axis=1)
    gram = grams.sum(axis=0)
    diagonal = np.arange(m)

    # C is centred, so its second moments are the covariances
    hollow = gram / n
    hollow[diagonal, diagonal] = 0.0
    u_cov_u = float(u @ hollow @ u)
    if not u_cov_u > 0.0:
        raise NoSignal("the off-diagonal covariances have no positive scale along v_hint")
    lambda_e = u_cov_u / (1.0 - float(np.sum(u**4)))

    # the leave-one-block-out covariances; a single sample leaves nothing out
    left = blocks if n > 1 else 0
    kept = n - np.bincount(np.arange(n) % blocks, minlength=blocks)[:left]
    means = (block_sums.sum(axis=0) - block_sums[:left]) / kept[:, None]
    covs = np.subtract(gram, grams[:left], out=grams[:left])
    covs /= kept[:, None, None]
    covs -= means[:, :, None] * means[:, None, :]
    covs[:, diagonal, diagonal] = 0.0
    vs = np.tile(u, (left, 1))
    lams = np.full(left, lambda_e)
    for _ in range(REFIT_STEPS):
        # impute the diagonal from (lambda, v), take one power step, and
        # refit lambda along the new v
        w = np.einsum("bij,bj->bi", covs, vs) + lams[:, None] * vs**3
        norms = np.sqrt((w * w).sum(axis=1))
        if not np.all(norms > 0.0):
            raise NoSignal("a leave-out covariance annihilates its start vector")
        vs = w / norms[:, None]
        cov_v = np.einsum("bij,bj->bi", covs, vs)
        lams = (vs * cov_v).sum(axis=1) / (1.0 - (vs**4).sum(axis=1))

    sums, scale = _triple_sums(c, np.vstack([vs, u]), blocks)
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
    raw = (sums[:-1].sum(axis=1) - np.diagonal(sums[:-1])) / kept
    ybar = vs * means
    total_ybar = ybar.sum(axis=1)
    # sum_d Cov(y_i, y_j) ybar_l = sum_{i != j} Cov(y_i, y_j) (total - ybar_i - ybar_j)
    cov_sum = total_ybar * (vs * cov_v).sum(axis=1) - 2.0 * (cov_v * vs * ybar).sum(axis=1)
    central = raw - 3.0 * cov_sum - _distinct_triples(ybar)
    lams_t = central / _distinct_triples(vs * vs)

    lambda_e, _ = _jackknife(lambda_e, lams)
    lambda_t, lambda_t_se = _jackknife(lambda_t, lams_t)
    if not lambda_e > 0.0:
        raise NoSignal("the bias-corrected covariance scale is not positive")
    return TensorRecovery(lambda_t, lambda_e, lambda_t_se, u)
