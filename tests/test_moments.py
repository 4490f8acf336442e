"""Moment estimation tests: exact diagonals, the factorization identity
between the enumeration oracle and the closed form, and Monte Carlo
consistency of the sampled estimators."""

import itertools

import numpy as np
import pytest

from summa.exceptions import InvalidInput
from summa.moments import covariance_matrix, third_moment_offdiag
from summa.ranking import RankMatrix, ScoreMatrix, rank_transform

from oracles import ConditionalRankModel, exact_central_moment, predicted_central_moment


def moment(c, i, j, l):
    """Central third moment of methods i, j, l from the centred rows."""
    return float(np.mean(c[i] * c[j] * c[l]))


def centre(ranks):
    """The centred rows C of an M x N rank array, by hand."""
    return ranks - ranks.mean(axis=1, keepdims=True)


def ungroup(centred):
    """C rebuilt from the blocks of a CentredRanks: sample k = j B + b is
    column j of block b."""
    count, m, length = centred.blocks.shape
    return centred.blocks.transpose(1, 2, 0).reshape(m, count * length)[:, :centred.n]


def covariance_of(ranks):
    return covariance_matrix(third_moment_offdiag(ranks))


def dense_offdiag(ranks):
    """The dense distinct-index array of the third moments, by brute
    force from the centred rows, with zeros at repeated indices; every
    entry is read from its sorted index triple, so the array is exactly
    symmetric."""
    c = centre(ranks)
    m = c.shape[0]
    t = np.einsum("ik,jk,lk->ijl", c, c, c) / c.shape[1]
    i, j, l = np.sort(np.indices((m, m, m)), axis=0)
    return np.where((i != j) & (j != l), t[i, j, l], 0.0)


def random_model(rng, n_methods=3, support=6, rho=None):
    p0 = rng.random((n_methods, support)) + 0.05
    p1 = rng.random((n_methods, support)) + 0.05
    p0 /= p0.sum(axis=1, keepdims=True)
    p1 /= p1.sum(axis=1, keepdims=True)
    if rho is None:
        rho = float(rng.uniform(0.05, 0.95))
    return ConditionalRankModel(p0, p1, rho)


class TestCovariance:
    def test_strict_diagonal_exact(self):
        # population variance of any tie-free rank row is (N^2 - 1) / 12
        for n in (4, 5, 8, 100):
            rng = np.random.default_rng(n)
            rows = np.array([rng.permutation(np.arange(1, n + 1)) for _ in range(3)])
            q2 = covariance_of(rows.astype(float))
            for i in range(3):
                assert q2[i, i] == (n * n - 1) / 12

    def test_identical_rows(self):
        row = np.arange(1, 5, dtype=float)
        q2 = covariance_of(np.array([row, row]))
        assert q2[0, 1] == pytest.approx(15 / 12, abs=1e-14)

    def test_anticorrelated_rows(self):
        row = np.arange(1, 5, dtype=float)
        q2 = covariance_of(np.array([row, 5 - row]))
        assert q2[0, 1] == pytest.approx(-15 / 12, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        ranks = np.array([rng.permutation(np.arange(1, 31)) for _ in range(6)], float)
        q2 = covariance_of(ranks)
        assert np.array_equal(q2, q2.T)

    def test_accepts_rank_matrix(self):
        sm = ScoreMatrix.from_array(np.random.default_rng(0).normal(size=(4, 12)))
        rm = rank_transform(sm, "strict")
        assert covariance_of(rm).shape == (4, 4)

    @pytest.mark.parametrize("n", [2, 3, 19, 20, 21, 333, 1000])
    @pytest.mark.parametrize("policy", ["midrank", "strict"])
    def test_block_grams_sum_to_the_product(self, n, policy):
        # the gram and covariance_matrix bytes equal C C^T and C C^T / N:
        # centred ranks are multiples of 1/2, so every Gram entry is exact
        # and the products of the min(20, N) zero-padded blocks sum to one
        # product bit for bit; scores drawn from three values make midrank
        # ties in every row.  The block Grams are kept from N = 333 on,
        # where the 7 methods are no more than the ceil(N / 20) samples a block
        rng = np.random.default_rng(n)
        scores = rng.integers(0, 3, size=(7, n)).astype(float)
        scores[0] = rng.standard_normal(n)
        ranks = rank_transform(ScoreMatrix.from_array(scores), policy)
        centred = third_moment_offdiag(ranks)
        c = centre(ranks.ranks)
        blocks = min(20, n)
        length = -(-n // blocks)
        assert centred.blocks.shape == (blocks, 7, length) and centred.n == n
        # block b holds the samples k = b mod B in order, then zeros
        padded = np.zeros((7, length * blocks))
        padded[:, :n] = c
        assert np.array_equal(centred.blocks, padded.reshape(7, length, blocks).transpose(2, 0, 1))
        assert centred.gram.tobytes() == (c @ c.T).tobytes()
        assert covariance_matrix(centred).tobytes() == (c @ c.T / n).tobytes()
        assert np.array_equal(centred.block_sums, centred.blocks.sum(axis=2))
        assert np.array_equal(centred.block_squares, (centred.blocks**2).sum(axis=2))
        assert (centred.block_grams is not None) == (7 <= length) == (n >= 333)
        if centred.block_grams is not None:
            assert centred.block_grams.shape == (blocks, 7, 7)
            for b in range(blocks):
                part = c[:, b::blocks]
                assert centred.block_grams[b].tobytes() == (part @ part.T).tobytes(), b
            assert np.array_equal(centred.block_squares,
                                  np.diagonal(centred.block_grams, axis1=1, axis2=2))

    @pytest.mark.parametrize("n", [13, 140, 160, 1000])
    def test_block_products_on_both_routes(self, n):
        # C_b C_b^T v_b, from the blocks at N = 13 and 140 and from the
        # kept block Grams at N = 160 and 1000 (8 <= ceil(N / 20))
        rng = np.random.default_rng(n)
        ranks = rank_transform(ScoreMatrix.from_array(rng.standard_normal((8, n))), "midrank")
        centred = third_moment_offdiag(ranks)
        blocks = min(20, n)
        assert (centred.block_grams is None) == (n < 160)
        c = centre(ranks.ranks)
        for count in (blocks, 3):
            vs = rng.standard_normal((count, 8))
            expected = [c[:, b::blocks] @ (c[:, b::blocks].T @ vs[b]) for b in range(count)]
            got = centred.block_products(vs)
            assert got.shape == (count, 8)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * n**3)

    def test_centred_ranks_are_read_only(self):
        # block Grams are kept at N = 100, 4 <= ceil(100 / 20), not at N = 10
        for n in (10, 100):
            centred = third_moment_offdiag(np.arange(1.0, 4 * n + 1).reshape(4, n))
            assert (centred.block_grams is None) == (n == 10)
            for arr in (centred.blocks, centred.gram, centred.block_sums,
                        centred.block_squares, centred.block_grams):
                assert arr is None or not arr.flags.writeable

    def test_raw_ranks_copied_and_checked(self):
        # a raw array is copied, not kept or written, and centred as by hand
        ranks = np.random.default_rng(2).random((5, 23))
        before = ranks.copy()
        centred = third_moment_offdiag(ranks)
        assert np.array_equal(ranks, before)
        assert not np.shares_memory(centred.blocks, ranks)
        assert np.array_equal(ungroup(centred), centre(ranks))
        for bad in (ranks[:, :1], ranks[..., None]):
            with pytest.raises(InvalidInput, match="M x N matrix"):
                third_moment_offdiag(bad)

    @pytest.mark.parametrize("entries", [[np.nan], [np.inf], [np.inf, -np.inf]])
    def test_non_finite_ranks_rejected_before_centring(self, entries):
        # centring an infinity would warn of an invalid subtraction first
        ranks = np.random.default_rng(3).random((5, 23))
        ranks[4, :len(entries)] = entries
        with pytest.raises(InvalidInput, match="finite"):
            third_moment_offdiag(ranks)


class TestThirdMoment:
    @pytest.mark.parametrize("shape", [(3, 1), (2, 3, 4), (0, 5)])
    def test_malformed_ranks_rejected(self, shape):
        with pytest.raises(InvalidInput, match="M x N matrix with N >= 2"):
            third_moment_offdiag(np.ones(shape))

    def test_identical_strict_rows_vanish(self):
        # third central moment of a symmetric distribution is zero
        n = 9
        row = np.arange(1, n + 1, dtype=float)
        c = centre(np.array([row, row, row]))
        assert moment(c, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_prevalence_vanishes_in_expectation(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, n_methods=3, support=8, rho=0.5)
        ranks, _ = model.sample(200_000, rng)
        c = centre(ranks)
        scale = abs(model.delta(0) * model.delta(1) * model.delta(2))
        assert abs(moment(c, 0, 1, 2)) < 0.05 * max(scale, 1.0)

    def test_matches_enumeration_on_sampled_data(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n_methods=3, support=5, rho=0.3)
        exact = exact_central_moment(model, (0, 1, 2))
        ranks, _ = model.sample(100_000, rng)
        c = centre(ranks)
        assert moment(c, 0, 1, 2) == pytest.approx(exact, abs=0.3)

    def test_dense_symmetric_matches_brute_force(self):
        rng = np.random.default_rng(9)
        ranks = rng.random((6, 40))
        c = ranks - ranks.mean(axis=1, keepdims=True)
        assert np.array_equal(ungroup(third_moment_offdiag(ranks)), c)
        q3 = dense_offdiag(ranks)
        for i, j, l in itertools.product(range(6), repeat=3):
            if len({i, j, l}) == 3:
                expected = np.mean(c[i] * c[j] * c[l])
                assert q3[i, j, l] == pytest.approx(expected, rel=1e-12)
            else:
                assert q3[i, j, l] == 0.0
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(q3.transpose(axes), q3)

    def test_blocked_product_matches_brute_force(self):
        # N = 5000 spans several of the matrix product's blocks along the
        # sample axis; a shared skewed factor keeps every moment well away
        # from zero, so a relative tolerance is meaningful
        rng = np.random.default_rng(17)
        ranks = rng.exponential(size=5000) + 0.5 * rng.normal(size=(9, 5000))
        q3 = dense_offdiag(ranks)
        c = ranks - ranks.mean(axis=1, keepdims=True)
        expected = np.einsum("ik,jk,lk->ijl", c, c, c) / c.shape[1]
        i, j, l = np.ogrid[:9, :9, :9]
        distinct = (i != j) & (i != l) & (j != l)
        np.testing.assert_allclose(q3[distinct], expected[distinct], rtol=1e-12, atol=0)
        assert np.all(q3[~distinct] == 0.0)
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(q3, q3.transpose(axes))

    def test_method_permutation_invariance(self):
        rng = np.random.default_rng(13)
        ranks = rng.random((4, 60))
        perm = [2, 0, 3, 1]
        assert np.array_equal(ungroup(third_moment_offdiag(ranks[perm])),
                              ungroup(third_moment_offdiag(ranks))[perm])
        q3 = dense_offdiag(ranks)
        q3p = dense_offdiag(ranks[perm])
        np.testing.assert_allclose(q3p, q3[np.ix_(perm, perm, perm)], rtol=1e-12, atol=0)


class TestFactorizationIdentity:
    """Enumeration oracle vs the closed form, orders 2 through 4."""

    def test_order2_equals_covariance_form(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_model(rng, n_methods=2, support=6)
            lhs = exact_central_moment(model, (0, 1))
            rhs = model.rho * (1 - model.rho) * model.delta(0) * model.delta(1)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_order3_balanced_vanishes(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, n_methods=3, support=6, rho=0.5)
        assert exact_central_moment(model, (0, 1, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_order3_closed_form(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, n_methods=3, support=4, rho=0.3)
        deltas = [model.delta(i) for i in range(3)]
        expected = 0.3 * 0.7 * (0.3**2 - (-0.7) ** 2) * np.prod(deltas)
        assert exact_central_moment(model, (0, 1, 2)) == pytest.approx(expected, abs=1e-12)
        assert predicted_central_moment(0.3, deltas) == pytest.approx(expected, abs=1e-14)

    def test_order3_two_point_conditionals(self):
        # three perfect two-point methods at rho=0.3: each delta is 1 and
        # the moment is 0.3 * 0.7 * (0.3^2 - (-0.7)^2) = -0.084
        p1 = np.tile([1.0, 0.0], (3, 1))
        p0 = np.tile([0.0, 1.0], (3, 1))
        model = ConditionalRankModel(p0, p1, 0.3)
        assert model.delta(0) == 1.0
        assert exact_central_moment(model, (0, 1, 2)) == pytest.approx(-0.084, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_random_models(self, order):
        rng = np.random.default_rng(100 + order)
        for _ in range(25):
            model = random_model(rng, n_methods=order, support=int(rng.integers(2, 9)))
            enumerated = exact_central_moment(model, tuple(range(order)))
            deltas = [model.delta(i) for i in range(order)]
            closed = predicted_central_moment(model.rho, deltas)
            assert enumerated == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_class_relabel_symmetry(self, order):
        # swapping class names maps rho -> 1-rho, delta -> -delta; Q_l is unchanged
        rng = np.random.default_rng(200 + order)
        model = random_model(rng, n_methods=order, support=5)
        swapped = ConditionalRankModel(model.p1, model.p0, 1.0 - model.rho)
        a = exact_central_moment(model, tuple(range(order)))
        b = exact_central_moment(swapped, tuple(range(order)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_oracle_caps(self):
        rng = np.random.default_rng(31)
        big_support = random_model(rng, n_methods=2, support=13)
        with pytest.raises(InvalidInput):
            exact_central_moment(big_support, (0, 1))
        with pytest.raises(InvalidInput):
            exact_central_moment(random_model(rng, 3, 4), (0, 1, 1))
        with pytest.raises(InvalidInput):
            exact_central_moment(random_model(rng, 3, 4), (0, 1, 2), order=2)


class TestMonteCarloConsistency:
    def test_off_diagonal_rate(self):
        """Sampled Q2(i,j) approaches rho(1-rho) delta_i delta_j at ~1/sqrt(N)."""
        rng = np.random.default_rng(37)
        model = random_model(rng, n_methods=2, support=8, rho=0.35)
        target = model.rho * (1 - model.rho) * model.delta(0) * model.delta(1)
        errors = {}
        for n in (1_000, 10_000, 100_000):
            reps = [
                abs(covariance_of(model.sample(n, rng)[0])[0, 1] - target)
                for _ in range(5)
            ]
            errors[n] = np.mean(reps)
        # rate check: error * sqrt(N) stays bounded (within a loose factor)
        scaled = [errors[n] * np.sqrt(n) for n in (1_000, 10_000, 100_000)]
        assert max(scaled) < 8 * min(scaled)
        assert errors[100_000] < errors[1_000]
