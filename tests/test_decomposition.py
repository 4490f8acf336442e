"""Rank-one matrix/tensor recovery tests on constructed noiseless
instances, plus sign resolution and recoverability flagging."""

import math
import tracemalloc

import numpy as np
import pytest

from summa import decomposition
from summa.decomposition import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    REFIT_STEPS,
    Rank1Recovery,
    _factor_step,
    check_recoverability,
    recover_rank1_matrix,
    recover_rank1_tensor,
    resolve_sign,
)
from summa.exceptions import InvalidInput, NoSignal, NotConverged, TooFewMethods
from summa.inference import prevalence_from_moments
from summa.moments import JACKKNIFE_BLOCKS, CentredRanks, covariance_matrix, third_moment_offdiag
from summa.ranking import rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble

from oracles import rank1_completion

# Designs (M, N, rho) of the matrix stage's oracle checks: two from the
# benchmark's replicates, two small ones where some fits decline, and a
# skewed one where half the fits from the all-ones start end with lambda
# below their residual and refit from the largest pair
ORACLE_DESIGNS = [(30, 1000, 0.3), (12, 400, 0.5), (8, 200, 0.3), (5, 60, 0.5),
                  (30, 1000, 0.1)]
ORACLE_SEEDS = range(10)
# Fits whose outcome differs from the oracle's.  At seed 0 the fit from
# the all-ones start runs off towards method 1 alone, at a lower residual
# than the oracle's point, and ends in the variance cap's NoSignal.  At
# seed 4 both approach an improper point (lambda v_0^2 = 1.58 Q_00): the
# fit reaches it in 504 steps, and the oracle, still 4e-7 from it after
# 10 000, ends in the variance cap
OUTCOME_FLIPS = {((5, 60, 0.5), 0): "NoSignal", ((5, 60, 0.5), 4): "converged"}

# Equal row sums (1) make the all-ones start an eigenvector of every
# completion; the top eigenvalue is 5, along (1, 1, -1, -1) / 2
EQUAL_ROW_SUMS = np.array([
    [0.0, 3.0, -1.0, -1.0],
    [3.0, 0.0, -1.0, -1.0],
    [-1.0, -1.0, 0.0, 3.0],
    [-1.0, -1.0, 3.0, 0.0],
])


def equal_row_sums_above_every_entry():
    """Hollow matrix whose rows all sum to 1.5984, above its largest
    entry 1.5057, so the all-ones start (value 1.5984) returns more than
    that entry; the top eigenvalue is 1.8647, off the all-ones."""
    h = np.zeros((5, 5))
    for (i, j), x in {(0, 1): -0.7065, (0, 2): 1.5057, (0, 3): 0.7992, (1, 3): 0.7992,
                      (1, 4): 1.5057, (2, 4): 0.0927}.items():
        h[i, j] = h[j, i] = x
    return h


def random_recoverable_q(rng, m):
    """Vector satisfying q_i^2 < sum_{j != i} q_j^2 with some margin."""
    while True:
        q = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        squares = q * q
        if 2 * squares.max() < 0.9 * squares.sum():
            return q


def leading_singular_pair(matrix):
    """Dominant eigenvalue magnitude and eigenvector of a symmetric
    matrix, by LAPACK."""
    values, vectors = np.linalg.eigh(matrix)
    k = int(np.argmax(np.abs(values)))
    return abs(values[k]), vectors[:, k]


def design_covariance(m, n, rho, seed):
    data = simulate_ensemble(SimulationConfig(n_methods=m, n_samples=n, rho=rho, seed=seed))
    return covariance_matrix(third_moment_offdiag(rank_transform(data.scores, "midrank")))


def fit_outcome(q):
    """``recover_rank1_matrix``'s outcome, outer iterations and (partial) v."""
    try:
        rec = recover_rank1_matrix(q)
    except NotConverged as exc:
        return "NotConverged", exc.partial.iterations, exc.partial.v
    except NoSignal:
        return "NoSignal", None, None
    return "converged", rec.iterations, rec.v


def same_direction(u, v, atol):
    return min(np.abs(u - v).max(), np.abs(u + v).max()) < atol


def one_sample(a):
    """Centred rank matrix of one sample: its tensor is a (x) a (x) a."""
    return np.asarray(a, dtype=float)[:, None]


def two_class_centred(a, rho, n):
    """Centred columns (1 - rho) a for the first rho * n samples and
    -rho a for the rest: a noiseless two-class ensemble whose tensor is
    rho (1 - rho) (1 - 2 rho) a (x) a (x) a.  With rho * n a multiple of
    the block count every jackknife block holds the same mix of the two
    columns."""
    positive = np.arange(n) < round(rho * n)
    return np.where(positive, 1.0 - rho, -rho) * np.asarray(a, dtype=float)[:, None]


def brute_force_scale(c, u):
    """Least-squares lambda_t of lambda_t u (x) u (x) u over the distinct
    entries of the dense sample tensor of the columns of c."""
    m = c.shape[0]
    t = np.einsum("ik,jk,lk->ijl", c, c, c) / c.shape[1]
    i, j, l = np.ogrid[:m, :m, :m]
    distinct = (i != j) & (i != l) & (j != l)
    r1 = np.einsum("i,j,l->ijl", u, u, u)
    return (t * r1)[distinct].sum() / (r1 * r1)[distinct].sum()


def stage_inputs(m, n, rho, seed):
    """The centred rank matrix C and the matrix stage's v of one
    simulated design."""
    data = simulate_ensemble(SimulationConfig(n_methods=m, n_samples=n, rho=rho, seed=seed))
    ranks = rank_transform(data.scores, "midrank")
    c = ranks.ranks - ranks.ranks.mean(axis=1, keepdims=True)
    return c, recover_rank1_matrix(covariance_matrix(third_moment_offdiag(ranks))).v


def fit_tensor(c, v_hint):
    """The tensor stage on a bare centred matrix C."""
    return recover_rank1_tensor(CentredRanks.from_centred(c), v_hint)


class TestResolveSign:
    def test_majority_positive_kept(self):
        v = np.array([0.6, 0.8, -0.1])
        v = v / np.linalg.norm(v)
        assert np.array_equal(resolve_sign(v), v)

    def test_majority_negative_flipped(self):
        v = np.array([-0.6, -0.8, 0.1])
        v = v / np.linalg.norm(v)
        assert np.array_equal(resolve_sign(v), -v)

    def test_tie_first_nonzero_rule(self):
        a = 1 / np.sqrt(2)
        v = np.array([a, -a])
        assert resolve_sign(v)[0] > 0
        assert resolve_sign(-v)[0] > 0

    def test_tie_broken_by_sum(self):
        v = np.array([0.9, 0.2, -0.3, -0.4])
        v = v / np.linalg.norm(v)  # 2 positive vs 2 negative, positive sum
        assert np.array_equal(resolve_sign(v), v)
        assert np.array_equal(resolve_sign(-v), v)


class TestRecoverability:
    def test_single_informative_method_flagged(self):
        flags = check_recoverability(np.array([1.0, 0.0, 0.0, 0.0]))
        assert flags.tolist() == [True, False, False, False]

    def test_uniform_not_flagged(self):
        assert not check_recoverability(np.full(4, 0.5)).any()

    def test_dominant_coordinate_flagged(self):
        v = np.array([0.8, 0.4, 0.3, np.sqrt(1 - 0.89)])
        assert check_recoverability(v).tolist() == [True, False, False, False]


class TestRecoverRank1Matrix:
    def test_exact_instance_with_arbitrary_diagonal(self):
        rng = np.random.default_rng(0)
        q = np.array([1.0, 2.0, 2.0, 2.0])
        d0 = rng.uniform(-1.0, 3.0, size=4)
        rec = recover_rank1_matrix(np.outer(q, q) + np.diag(d0), tol=1e-12, max_iter=5000)
        qhat = q / np.linalg.norm(q)
        err = min(np.abs(rec.v - qhat).max(), np.abs(rec.v + qhat).max())
        assert err < 1e-8
        assert rec.lambda_ == pytest.approx(q @ q, rel=1e-8)
        assert np.abs(rec.diag - d0).max() < 1e-6
        assert rec.converged

    def test_v_is_unit_and_read_only(self):
        q = design_covariance(12, 400, 0.3, 0)
        rec = recover_rank1_matrix(q)
        assert abs(np.linalg.norm(rec.v) - 1.0) < 1e-15
        assert not rec.v.flags.writeable
        assert np.array_equal(rec.diag, np.diag(q) - rec.lambda_ * rec.v * rec.v)

    def test_noiseless_sweep(self):
        rng = np.random.default_rng(1)
        for m in range(4, 13):
            for _ in range(5):
                q = random_recoverable_q(rng, m)
                d0 = rng.uniform(0.0, 2.0, size=m)
                rec = recover_rank1_matrix(
                    np.outer(q, q) + np.diag(d0), tol=1e-12, max_iter=5000
                )
                qhat = q / np.linalg.norm(q)
                err = min(np.abs(rec.v - qhat).max(), np.abs(rec.v + qhat).max())
                assert err < 1e-8, f"M={m}"
                assert rec.lambda_ == pytest.approx(q @ q, rel=1e-8)

    def test_mixed_signs_recovered(self):
        # the entries of q nearly cancel, so the all-ones start has a
        # negative value, (sum q)^2 - q'q = -11.5; the fit must leave it
        q = np.array([1.0, 2.0, -1.5, 0.5, -2.0, -1.0])
        rec = recover_rank1_matrix(np.outer(q, q) + np.diag(np.linspace(0.5, 2.0, 6)),
                                   tol=1e-12, max_iter=5000)
        assert rec.converged
        assert np.abs(rec.v - resolve_sign(q / np.linalg.norm(q))).max() < 1e-8
        assert rec.lambda_ == pytest.approx(q @ q, rel=1e-8)

    def test_sign_invariance(self):
        rng = np.random.default_rng(4)
        q = random_recoverable_q(rng, 6)
        d0 = rng.uniform(0.0, 1.0, size=6)
        rec_pos = recover_rank1_matrix(np.outer(q, q) + np.diag(d0))
        rec_neg = recover_rank1_matrix(np.outer(-q, -q) + np.diag(d0))
        assert np.allclose(rec_pos.v, rec_neg.v, atol=1e-12)
        assert rec_pos.lambda_ == pytest.approx(rec_neg.lambda_, rel=1e-12)

    def test_true_factor_is_fixed_point_of_update_map(self):
        # imputing the diagonal from the true (lambda, v) completes the
        # matrix exactly, whose leading pair is the same (lambda, v)
        q = np.array([1.0, -1.5, 2.0, 0.5, 1.0])
        lam_true = float(q @ q)
        qhat = q / np.linalg.norm(q)
        hollow = np.outer(q, q)
        np.fill_diagonal(hollow, 0.0)
        y = hollow + np.diag(lam_true * qhat * qhat)
        sigma, u = leading_singular_pair(y)
        assert sigma == pytest.approx(lam_true, rel=1e-12)
        assert min(np.abs(u - qhat).max(), np.abs(u + qhat).max()) < 1e-10
        # and the minimum-residual update, alone and in a batch, keeps it
        assert np.abs(_factor_step(hollow @ qhat, qhat) - qhat).max() < 1e-12
        batch = np.vstack([qhat, -qhat])
        assert np.abs(_factor_step(batch @ hollow, batch) - batch).max() < 1e-12

    def test_rank_one_input_recovered_exactly(self):
        q = np.array([1.0, -1.5, 2.0, 0.5, 1.0])
        rec = recover_rank1_matrix(np.outer(q, q), tol=1e-12, max_iter=5000)
        assert rec.lambda_ == pytest.approx(q @ q, rel=1e-8)
        qhat = resolve_sign(q / np.linalg.norm(q))
        assert np.abs(rec.v - qhat).max() < 1e-8
        assert np.abs(rec.diag).max() < 1e-7

    def test_monotone_offdiag_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = random_recoverable_q(rng, 7)
            noise = rng.normal(scale=0.05 * np.abs(q).max() ** 2, size=(7, 7))
            noise = (noise + noise.T) / 2
            rec = recover_rank1_matrix(np.outer(q, q) + noise + np.diag(rng.uniform(0, 1, 7)))
            history = np.array(rec.residual_history)
            # one residual per update step, the last one exact
            assert history.size == rec.iterations > 1
            assert history[-1] == rec.residual
            assert np.all(np.diff(history) <= 1e-9 * max(1.0, history[0]))

    @pytest.mark.parametrize("design", ORACLE_DESIGNS, ids=lambda d: "-".join(map(str, d)))
    def test_matches_eigh_oracle(self, design):
        # the update's fixed points are the alternating map's, so a fit
        # ends where the oracle, run far tighter, does.  The oracle's
        # steps are slow at M = 5, so it gets ten times the budget
        for seed in ORACLE_SEEDS:
            q = design_covariance(*design, seed)
            outcome, _, v = fit_outcome(q)
            expected, _, _, u = rank1_completion(q, 1e-13, 10 * DEFAULT_MAX_ITER)
            assert outcome == OUTCOME_FLIPS.get((design, seed), expected), seed
            if outcome != "NoSignal":
                assert same_direction(v, u, 1e-6), seed

    @pytest.mark.parametrize("design", [(8, 200, 0.3), (6, 100, 0.5), (5, 100, 0.3),
                                        (5, 60, 0.5)], ids=lambda d: "-".join(map(str, d)))
    def test_small_designs_end_within_the_budget(self, design):
        # a fit that runs off towards one method ends at max_iter in the
        # variance cap's NoSignal; every other fit converges before it
        for seed in range(40):
            assert fit_outcome(design_covariance(*design, seed))[0] != "NotConverged", seed

    def test_peak_memory_below_three_matrices(self):
        # beside its input a fit needs the hollow copy and, while it
        # measures a residual, one outer product: about 2 M x M float64
        # arrays; a third one held for the whole fit would pass 3
        m = 400
        rng = np.random.default_rng(0)
        v = rng.uniform(0.5, 1.5, m)
        noise = rng.standard_normal((m, m)) * 1e-3
        q = 2.0 * np.outer(v, v) / (v @ v) + np.diag(rng.uniform(0.5, 1.0, m)) + noise + noise.T
        tracemalloc.start()
        try:
            rec = recover_rank1_matrix(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.converged
        assert peak < 2.5 * q.nbytes

    def test_equal_row_sums_not_stuck_on_all_ones(self):
        # the all-ones start is an eigenvector of H (value 1), so it is a
        # fixed point of the update, at lambda = 4 / 3 below its residual
        # 6.53; the fit from the largest pair finds the top eigenvector
        rec = recover_rank1_matrix(EQUAL_ROW_SUMS + 4.0 * np.eye(4))
        values, vectors = np.linalg.eigh(EQUAL_ROW_SUMS)
        assert values[-1] == pytest.approx(5.0)
        assert rec.converged
        assert same_direction(rec.v, vectors[:, -1], 1e-7)
        # the alternating map's fixed point lambda = 5 + lambda / 4
        assert rec.lambda_ == pytest.approx(20.0 / 3.0, rel=1e-5)
        outcome, _, lam, u = rank1_completion(
            EQUAL_ROW_SUMS + 4.0 * np.eye(4), 1e-13, DEFAULT_MAX_ITER)
        assert outcome == "converged"
        assert rec.lambda_ == pytest.approx(lam, rel=1e-9)
        assert same_direction(rec.v, u, 1e-7)

    def test_equal_row_sums_above_every_entry_leave_all_ones(self):
        # the fit from the all-ones start stays there, at lambda = 2.00
        # below its residual 3.07, so the fit from the largest pair
        # follows.  From there it leaves the oracle's lambda = 2.60 point,
        # a saddle, and heads for method 0 alone
        hollow = equal_row_sums_above_every_entry()
        values = np.linalg.eigvalsh(hollow)
        assert np.ptp(hollow.sum(axis=1)) < 1e-12
        assert values[-2] == pytest.approx(hollow.sum(axis=1)[0])
        assert values[-1] > values[-2] > np.abs(hollow).max()
        with pytest.raises(NoSignal, match="dominated by a single method"):
            recover_rank1_matrix(hollow + 10.0 * np.eye(5))
        with pytest.raises(NotConverged) as raised:
            recover_rank1_matrix(hollow + 10.0 * np.eye(5), max_iter=20)
        partial = raised.value.partial
        assert partial.residual_history[-1] < 2.47 < partial.residual_history[0]
        assert abs(partial.v[0]) > 0.97

    def test_top_eigenvector_orthogonal_to_all_ones_leaves_all_ones(self):
        # with one entry raised by 1e-3 the row sums differ, but the top
        # eigenvector still sums to 0.  The all-ones start is then no fixed
        # point, and the fit ends as with equal row sums, not at
        # v = 1 / sqrt 5
        hollow = equal_row_sums_above_every_entry()
        hollow[2, 4] = hollow[4, 2] = hollow[2, 4] + 1e-3
        values, vectors = np.linalg.eigh(hollow)
        assert np.ptp(hollow.sum(axis=1)) > 1e-4
        assert abs(vectors[:, -1].sum()) < 1e-12
        assert np.abs(hollow).max() < values[-2] < np.linalg.norm(hollow) / math.sqrt(2)
        with pytest.raises(NoSignal, match="dominated by a single method"):
            recover_rank1_matrix(hollow + 10.0 * np.eye(5))

    def test_identity_is_no_signal(self):
        with pytest.raises(NoSignal):
            recover_rank1_matrix(np.eye(5))

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_equal_negative_offdiag_is_no_signal_at_once(self, m):
        # the all-ones start fits the off-diagonals exactly with a
        # negative scale, and no rank-one signal has all of them negative
        q = -0.1 * (np.ones((m, m)) - np.eye(m)) + np.eye(m)
        with pytest.raises(NoSignal):
            recover_rank1_matrix(q, max_iter=1)

    def test_nonsymmetric_rejected(self):
        q = np.outer([1.0, 2.0, 2.0, 2.0], [1.0, 2.0, 2.0, 2.0])
        q[0, 1] += 1.0
        with pytest.raises(InvalidInput, match="symmetric"):
            recover_rank1_matrix(q)

    @pytest.mark.parametrize("shape, bad, message", [
        ((4, 5), None, "square matrix, got shape \\(4, 5\\)"),
        ((4,), None, "square matrix, got shape \\(4,\\)"),
        ((4, 4), np.nan, "finite"),
        ((4, 4), -np.inf, "finite"),
    ])
    def test_malformed_matrix_rejected(self, shape, bad, message):
        q = np.ones(shape)
        if bad is not None:
            q[1, 2] = q[2, 1] = bad
        with pytest.raises(InvalidInput, match=message):
            recover_rank1_matrix(q)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (127, 128), (128, 127), (299, 0),
                                      (0, 299), (200, 250), (250, 200)])
    def test_asymmetry_found_in_every_tile(self, pair):
        # 300 methods span three row tiles of the symmetry check; the
        # perturbation sits just above its threshold, 1e-8 of the peak
        a = np.full(300, 1.0 / np.sqrt(300))
        q = np.outer(a, a) * 100.0 + np.eye(300)
        assert decomposition._check_symmetric(q)[0] is q
        q[pair] += 2e-8 * np.abs(q).max()
        with pytest.raises(InvalidInput, match="symmetric"):
            recover_rank1_matrix(q)

    def test_single_nonzero_coordinate_is_no_signal(self):
        q = np.array([2.0, 0.0, 0.0, 0.0])
        with pytest.raises(NoSignal):
            recover_rank1_matrix(np.outer(q, q))

    def test_three_methods_refused(self):
        # off-diagonals of a 3x3 matrix always fit a rank-one completion
        # ((q, D) and (-q, D) both reproduce them), so refuse instead of
        # silently returning one of the completions
        q = np.array([1.0, 2.0, 3.0])
        matrix = np.outer(q, q)
        hollow = matrix - np.diag(np.diag(matrix))
        alt = np.outer(-q, -q) - np.diag(np.diag(matrix))
        assert np.allclose(hollow, alt)
        with pytest.raises(TooFewMethods):
            recover_rank1_matrix(matrix)


class TestRecoverRank1Tensor:
    def test_exact_instance(self):
        a = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        a = a / np.linalg.norm(a) * 2.0
        ahat = a / np.linalg.norm(a)
        rec = fit_tensor(one_sample(a), ahat)
        assert np.abs(rec.u - ahat).max() < 1e-12
        assert rec.lambda_t == pytest.approx(np.linalg.norm(a) ** 3, rel=1e-12)
        assert rec.lambda_e == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)
        # one sample leaves nothing out, so there is no standard error
        assert math.isnan(rec.lambda_t_se)

    def test_hint_used_as_given(self):
        c, v = stage_inputs(12, 400, 0.3, 0)
        assert fit_tensor(c, v).u is v

    def test_centred_ranks_reused_as_given(self):
        # the blocks and their moments are read, not written: two fits
        # from one CentredRanks agree with each other
        data = simulate_ensemble(SimulationConfig(n_methods=12, n_samples=401, rho=0.3, seed=1))
        centred = third_moment_offdiag(rank_transform(data.scores, "midrank"))
        fields = ("blocks", "gram", "block_sums", "block_squares")
        before = [getattr(centred, name).copy() for name in fields]
        v = recover_rank1_matrix(covariance_matrix(centred)).v
        fits = [recover_rank1_tensor(centred, v), recover_rank1_tensor(centred, v)]
        assert (fits[1].lambda_t, fits[1].lambda_e, fits[1].lambda_t_se) == (
            fits[0].lambda_t, fits[0].lambda_e, fits[0].lambda_t_se)
        for name, copy in zip(fields, before):
            assert np.array_equal(getattr(centred, name), copy), name

    def test_hint_alignment_flips_sign(self):
        a = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        ahat = a / np.linalg.norm(a)
        rec = fit_tensor(one_sample(a), -ahat)
        assert np.abs(rec.u + ahat).max() < 1e-12
        assert rec.lambda_t == pytest.approx(-np.linalg.norm(a) ** 3, rel=1e-12)

    def test_negative_factor_recovered(self):
        # tensor built from -a: aligned to +a direction the value is negative
        a = np.array([0.8, 1.2, 0.7, 1.0, 1.4, 0.9])
        ahat = a / np.linalg.norm(a)
        rec = fit_tensor(-one_sample(a), ahat)
        assert rec.lambda_t == pytest.approx(-np.linalg.norm(a) ** 3, rel=1e-12)
        assert np.abs(rec.u - ahat).max() < 1e-12

    def test_noiseless_sweep(self):
        rng = np.random.default_rng(10)
        for m in range(5, 11):
            a = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
            ahat = resolve_sign(a / np.linalg.norm(a))
            rec = fit_tensor(one_sample(a), ahat)
            sign = 1.0 if (ahat @ a) > 0 else -1.0
            assert np.abs(rec.u - sign * a / np.linalg.norm(a)).max() < 1e-12, f"M={m}"
            assert rec.lambda_t == pytest.approx(sign * np.linalg.norm(a) ** 3, rel=1e-12)

    def test_noiseless_two_class_jackknife(self):
        # every block holds the same class mix, so every leave-out fit is
        # the full fit: no bias correction, no spread, and rho exactly
        a = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 3.0])
        ahat = a / np.linalg.norm(a)
        n = 10 * JACKKNIFE_BLOCKS
        for rho in (0.3, 0.8):
            rec = fit_tensor(two_class_centred(a, rho, n), ahat)
            norm = np.linalg.norm(a)
            assert rec.lambda_e == pytest.approx(rho * (1 - rho) * norm**2, rel=1e-12)
            expected = rho * (1 - rho) * (1 - 2 * rho) * norm**3
            assert rec.lambda_t == pytest.approx(expected, rel=1e-10, abs=1e-10 * norm**3)
            assert rec.lambda_t_se <= 1e-10 * norm**3
            # the columns (1 - rho) a mark the class of prevalence rho
            # here, and a is positive, so that class is the one ranked low
            rho_hat, _ = prevalence_from_moments(rec.lambda_e, rec.lambda_t)
            assert rho_hat == pytest.approx(1 - rho, abs=1e-9)
        # at exact balance the noiseless third moments vanish altogether
        with pytest.raises(NoSignal):
            fit_tensor(two_class_centred(a, 0.5, n), ahat)

    def test_matches_brute_force_leave_outs(self):
        # every leave-one-block-out fit, redone by hand on its re-centred
        # samples with the same warm refit and the dense tensor; N below
        # the block count, N = 0, 1 and 19 mod 20 (no, one and all but one
        # block a sample short, so zero-padded) and N = 203
        for n in (13, 200, 201, 219, 203):
            c, v = stage_inputs(8, n, 0.3, 4)
            k = min(JACKKNIFE_BLOCKS, n)
            gram = c @ c.T / n
            np.fill_diagonal(gram, 0.0)
            lam_e = v @ gram @ v / (1 - np.sum(v**4))
            leave_e, leave_t = [], []
            for b in range(k):
                part = c[:, np.arange(n) % k != b]
                part = part - part.mean(axis=1, keepdims=True)
                cov = part @ part.T / part.shape[1]
                np.fill_diagonal(cov, 0.0)
                u = v
                for _ in range(REFIT_STEPS):
                    w = cov @ u / (1 - u**2)
                    u = w / np.linalg.norm(w)
                leave_e.append(u @ cov @ u / (1 - np.sum(u**4)))
                leave_t.append(brute_force_scale(part, u))
            leave_e, leave_t = np.array(leave_e), np.array(leave_t)
            rec = fit_tensor(c, v)
            lam_t = brute_force_scale(c, v)
            jackknifed_e = k * lam_e - (k - 1) * leave_e.mean()
            assert rec.lambda_e == pytest.approx(jackknifed_e, rel=1e-10), n
            jackknifed_t = k * lam_t - (k - 1) * leave_t.mean()
            assert rec.lambda_t == pytest.approx(jackknifed_t, rel=1e-10), n
            se = math.sqrt((k - 1) / k * np.sum((leave_t - leave_t.mean()) ** 2))
            assert rec.lambda_t_se == pytest.approx(se, rel=1e-10), n
            assert rec.z == rec.lambda_t / rec.lambda_t_se
        # a single sample is one block and leaves nothing out
        a = np.random.default_rng(4).uniform(0.5, 2.0, size=8)
        v = a / np.linalg.norm(a)
        rec = fit_tensor(one_sample(a), v)
        outer = np.outer(a, a)
        np.fill_diagonal(outer, 0.0)
        assert rec.lambda_e == pytest.approx(v @ outer @ v / (1 - np.sum(v**4)), rel=1e-12)
        assert rec.lambda_t == pytest.approx(brute_force_scale(one_sample(a), v), rel=1e-12)
        assert math.isnan(rec.lambda_t_se)

    def test_chunked_pass_matches_one_chunk(self, monkeypatch):
        c, v = stage_inputs(12, 3001, 0.3, 8)
        whole = fit_tensor(c, v)
        monkeypatch.setattr(decomposition, "_CHUNK", 12 * JACKKNIFE_BLOCKS * 7)
        chunked = fit_tensor(c, v)
        assert chunked.lambda_t == pytest.approx(whole.lambda_t, rel=1e-12)
        assert chunked.lambda_t_se == pytest.approx(whole.lambda_t_se, rel=1e-10)

    def test_last_bit_of_input_does_not_move_rho(self):
        # scaling C by one ulp scales lambda_t by its cube and leaves rho
        # alone; a balanced small design is where an iterative fit was not.
        # The bias correction K lambda - (K - 1) mean can leave a lambda_t
        # far inside its standard error, which the rounding of the two
        # terms then dominates, so lambda_t is held to 1e-12 of its
        # standard error where that is the larger
        stages = 0
        for seed in range(80, 120):
            try:
                c, v = stage_inputs(12, 400, 0.5, seed)
            except NoSignal:
                continue  # the matrix stage declines, so no tensor stage runs
            stages += 1
            scale = 1.0 + 2.0**-52
            base = fit_tensor(c, v)
            moved = fit_tensor(c * scale, v)
            size = max(abs(base.lambda_t), base.lambda_t_se) * scale**3
            assert abs(moved.lambda_t - base.lambda_t * scale**3) <= 1e-12 * size, seed
            rho = prevalence_from_moments(base.lambda_e, base.lambda_t)[0]
            rho_moved = prevalence_from_moments(moved.lambda_e, moved.lambda_t)[0]
            assert abs(rho_moved - rho) <= 1e-9, seed
        assert stages >= 39

    def test_zero_offdiag_is_no_signal(self):
        # two varying methods give nonzero repeated-index moments but no
        # distinct-index one; identical symmetric rows give none at all
        two_rows = np.zeros((5, 30))
        two_rows[:2] = np.random.default_rng(3).normal(size=(2, 30))
        strict_row = np.arange(1.0, 10.0) - 5.0
        for c in (np.zeros((5, 30)), two_rows, np.tile(strict_row, (5, 1))):
            with pytest.raises(NoSignal):
                fit_tensor(c, np.full(5, 1 / np.sqrt(5)))

    def test_repeated_index_entries_ignored_and_untouched(self):
        # a sample column with one nonzero method moves only the diagonal
        # of the covariance and the (i, i, i) moments; three such columns
        # that sum to zero within one block leave every leave-out mean as
        # it is, so appending them instead of zero columns must leave the
        # fit and its jackknife as they are, and C unwritten
        c, hint = stage_inputs(12, 400, 0.3, 5)
        rng = np.random.default_rng(6)
        k = JACKKNIFE_BLOCKS
        extra = np.zeros((12, 3 * k))
        for b in range(k):
            method = rng.integers(12)
            value = float(rng.integers(1, 200))
            extra[method, [b, b + k, b + 2 * k]] = (2 * value, -value, -value)
        padded = np.hstack([c, np.zeros((12, 3 * k))])
        filled = np.hstack([c, extra])
        before = filled.copy()
        base = fit_tensor(padded, hint)
        rec = fit_tensor(filled, hint)
        assert rec.lambda_t == pytest.approx(base.lambda_t, rel=1e-12)
        assert rec.lambda_e == pytest.approx(base.lambda_e, rel=1e-12)
        assert rec.lambda_t_se == pytest.approx(base.lambda_t_se, rel=1e-10)
        assert np.array_equal(filled, before)

    def test_four_methods_refused(self):
        a = np.ones(4)
        with pytest.raises(TooFewMethods):
            fit_tensor(one_sample(a), np.full(4, 0.5))

    def test_malformed_tensor_rejected(self):
        rows = np.random.default_rng(4).normal(size=(5, 20))
        nan_entry, inf_entry = rows.copy(), rows.copy()
        nan_entry[0, 3] = np.nan
        inf_entry[4, 0] = np.inf
        for c in (
            rows[:4],
            np.vstack([rows, rows[:1]]),
            rows[:, :0],
            rows[:, 0],
            one_sample(np.ones(5))[..., None],
            nan_entry,
            inf_entry,
        ):
            with pytest.raises(InvalidInput):
                fit_tensor(c, np.full(5, 1 / np.sqrt(5)))

    def test_no_iterations_rejected(self):
        a = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        for max_iter in (0, -1):
            with pytest.raises(InvalidInput):
                recover_rank1_matrix(np.outer(a, a), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tolerance_not_finite_and_positive_rejected(self, tol):
        # inf accepts the second iterate; -1 and nan are never met, 0 only
        # by an exact repeat, so those run out the budget
        a = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        with pytest.raises(InvalidInput, match="tol"):
            recover_rank1_matrix(np.outer(a, a), tol=tol)

    def test_non_unit_hint_rejected(self):
        a = np.ones(5)
        with pytest.raises(InvalidInput):
            fit_tensor(one_sample(a), np.ones(5))
