"""Rank-one matrix/tensor recovery tests on constructed noiseless
instances, plus sign resolution and recoverability flagging."""

import numpy as np
import pytest

from summa.decomposition import (
    POWER_MAX_ITER,
    POWER_TOL,
    Rank1Recovery,
    _check_symmetric,
    _power_iteration,
    check_recoverability,
    recover_rank1_matrix,
    recover_rank1_tensor,
    resolve_sign,
)
from summa.exceptions import InvalidInput, NoSignal, TooFewMethods, ZeroMatrix
from summa.moments import covariance_matrix, third_moment_offdiag
from summa.ranking import rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble


def random_recoverable_q(rng, m):
    """Vector satisfying q_i^2 < sum_{j != i} q_j^2 with some margin."""
    while True:
        q = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        squares = q * q
        if 2 * squares.max() < 0.9 * squares.sum():
            return q


def leading_singular_pair(matrix, tol=POWER_TOL, max_iter=POWER_MAX_ITER):
    """Dominant eigenvalue magnitude and eigenvector by power iteration."""
    ray, v = _power_iteration(_check_symmetric(matrix), tol, max_iter)
    return abs(ray), v


def cube(a):
    """Noiseless third-moment tensor a (x) a (x) a."""
    return np.multiply.outer(a, np.multiply.outer(a, a))


class TestLeadingSingularPair:
    def test_diagonal_matrix(self):
        sigma, u = leading_singular_pair(np.diag([3.0, 1.0]))
        assert sigma == pytest.approx(3.0, rel=1e-10)
        assert abs(u[0]) == pytest.approx(1.0, abs=1e-8)

    def test_exact_rank_one(self):
        q = np.array([1.0, 2.0, 2.0, 2.0])
        sigma, u = leading_singular_pair(np.outer(q, q))
        assert sigma == pytest.approx(q @ q, rel=1e-12)
        qhat = q / np.linalg.norm(q)
        assert min(np.linalg.norm(u - qhat), np.linalg.norm(u + qhat)) < 1e-10

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            leading_singular_pair(np.zeros((3, 3)))

    def test_small_eigen_gap_converges(self):
        rng = np.random.default_rng(2)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        values = np.array([3.0, 2.97, 1.0, 0.5, 0.2, 0.1])  # gap ratio 0.99
        a = basis @ np.diag(values) @ basis.T
        sigma, u = leading_singular_pair(a, tol=1e-10, max_iter=100_000)
        assert sigma == pytest.approx(3.0, rel=1e-6)
        assert abs(u @ basis[:, 0]) == pytest.approx(1.0, abs=1e-4)

    def test_dominant_magnitude_for_indefinite(self):
        sigma, _ = leading_singular_pair(np.diag([1.0, -5.0]))
        assert sigma == pytest.approx(5.0, rel=1e-9)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            leading_singular_pair(np.array([[0.0, 1.0], [2.0, 0.0]]))


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
        sigma, u = leading_singular_pair(y, tol=1e-12)
        assert sigma == pytest.approx(lam_true, rel=1e-12)
        assert min(np.abs(u - qhat).max(), np.abs(u + qhat).max()) < 1e-10

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
            assert np.all(np.diff(history) <= 1e-9 * max(1.0, history[0]))

    def test_identity_is_no_signal(self):
        with pytest.raises(NoSignal):
            recover_rank1_matrix(np.eye(5))

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
        rec = recover_rank1_tensor(cube(a), ahat, tol=1e-10)
        assert np.abs(rec.u - ahat).max() < 1e-6
        assert rec.lambda_t == pytest.approx(np.linalg.norm(a) ** 3, rel=1e-6)
        assert rec.converged

    def test_hint_alignment_flips_sign(self):
        a = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        ahat = a / np.linalg.norm(a)
        rec = recover_rank1_tensor(cube(a), -ahat, tol=1e-10)
        assert np.abs(rec.u + ahat).max() < 1e-6
        assert rec.lambda_t == pytest.approx(-np.linalg.norm(a) ** 3, rel=1e-6)

    def test_negative_factor_recovered(self):
        # tensor built from -a: aligned to +a direction the value is negative
        a = np.array([0.8, 1.2, 0.7, 1.0, 1.4, 0.9])
        ahat = a / np.linalg.norm(a)
        rec = recover_rank1_tensor(-cube(a), ahat, tol=1e-10)
        assert rec.lambda_t == pytest.approx(-np.linalg.norm(a) ** 3, rel=1e-6)
        assert np.abs(rec.u - ahat).max() < 1e-6

    def test_noiseless_sweep(self):
        rng = np.random.default_rng(10)
        for m in range(5, 11):
            a = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
            ahat = resolve_sign(a / np.linalg.norm(a))
            rec = recover_rank1_tensor(cube(a), ahat, tol=1e-10)
            sign = 1.0 if (ahat @ a) > 0 else -1.0
            assert np.abs(rec.u - sign * a / np.linalg.norm(a)).max() < 1e-6, f"M={m}"
            assert rec.lambda_t == pytest.approx(sign * np.linalg.norm(a) ** 3, rel=1e-6)

    def test_zero_offdiag_is_no_signal(self):
        # repeated-index entries are never read, so a nonzero diagonal
        # does not count as signal
        diagonal_only = np.zeros((5, 5, 5))
        diagonal_only[np.arange(5), np.arange(5), np.arange(5)] = 1.0
        for tensor in (np.zeros((5, 5, 5)), diagonal_only):
            with pytest.raises(NoSignal):
                recover_rank1_tensor(tensor, np.full(5, 1 / np.sqrt(5)))

    def test_repeated_index_entries_ignored_and_untouched(self):
        data = simulate_ensemble(SimulationConfig(n_methods=12, n_samples=400, rho=0.3, seed=5))
        ranks = rank_transform(data.scores, "strict")
        hint = recover_rank1_matrix(covariance_matrix(ranks)).v
        q3 = third_moment_offdiag(ranks)
        m = q3.shape[0]
        i, j, l = np.ogrid[:m, :m, :m]
        repeated = (i == j) | (i == l) | (j == l)
        # integer products are exact, so the filling is exactly symmetric
        k = np.random.default_rng(6).integers(-1000, 1000, size=m).astype(float)
        filled = np.where(repeated, k[i] * k[j] * k[l], q3)
        before = filled.copy()
        base = recover_rank1_tensor(q3, hint)
        rec = recover_rank1_tensor(filled, hint)
        assert rec.lambda_t == base.lambda_t
        assert rec.u.tobytes() == base.u.tobytes()
        assert rec.iterations == base.iterations
        assert rec.residual == base.residual
        assert np.array_equal(filled, before)

    def test_four_methods_refused(self):
        a = np.ones(4)
        with pytest.raises(TooFewMethods):
            recover_rank1_tensor(cube(a), np.full(4, 0.5))

    def test_malformed_tensor_rejected(self):
        nonsymmetric = cube(np.ones(5))
        nonsymmetric[0, 1, 2] = 2.0
        non_finite = cube(np.ones(5))
        non_finite[0, 0, 0] = np.nan
        for tensor in (
            cube(np.ones(6)),
            np.ones((5, 5)),
            np.ones((5, 5, 6)),
            nonsymmetric,
            non_finite,
        ):
            with pytest.raises(InvalidInput):
                recover_rank1_tensor(tensor, np.full(5, 1 / np.sqrt(5)))

    def test_non_unit_hint_rejected(self):
        a = np.ones(5)
        with pytest.raises(InvalidInput):
            recover_rank1_tensor(cube(a), np.ones(5))
