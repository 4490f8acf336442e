"""Rank transform and supervised oracle tests.

The delta / rectangle-rule / Mann-Whitney routes to AUROC are checked
against each other exactly (rational arithmetic) on small exhaustive
grids; the full N <= 8 sweep lives in the acceptance suite.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.exceptions import DegenerateLabels, InvalidInput, TiesUnsupported
from summa.ranking import (
    LabelVector,
    RankMatrix,
    ScoreMatrix,
    auroc_from_delta,
    auroc_rectangle,
    delta,
    mann_whitney_u0,
    rank_transform,
)


def reverse_ranks(ranks, n):
    """Map each rank r to n + 1 - r, flipping the method's sign convention."""
    return tuple(n + 1 - r for r in ranks)


def ranks_of(scores, policy):
    sm = ScoreMatrix.from_array([scores])
    return rank_transform(sm, policy).ranks[0]


class TestRankTransform:
    def test_descending_order(self):
        assert ranks_of([0.9, 0.1, 0.5], "strict").tolist() == [1, 3, 2]

    def test_midrank_ties(self):
        assert ranks_of([0.5, 0.5, 0.1], "midrank").tolist() == [1.5, 1.5, 3]

    def test_strict_stable_tiebreak(self):
        assert ranks_of([0.5, 0.5, 0.1], "strict").tolist() == [1, 2, 3]

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            ScoreMatrix.from_array([[0.1, np.nan, 0.3]])
        with pytest.raises(InvalidInput):
            ScoreMatrix.from_array([[0.1, np.inf, 0.3]])

    def test_unknown_policy_rejected(self):
        sm = ScoreMatrix.from_array([[0.1, 0.2, 0.3]])
        with pytest.raises(InvalidInput):
            rank_transform(sm, "dense")

    @given(
        st.lists(st.integers(min_value=-500, max_value=500), min_size=2,
                 max_size=30, unique=True)
    )
    def test_monotone_transform_invariance(self, scores):
        """Any strictly increasing transform of scores gives identical ranks."""
        base = ranks_of(scores, "strict")
        cubed = ranks_of([s**3 for s in scores], "strict")
        affine = ranks_of([2 * s + 7 for s in scores], "strict")
        assert base.tolist() == cubed.tolist() == affine.tolist()

    def test_midrank_row_sum_preserved(self):
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 5, size=(4, 40)).astype(float)  # many ties
        rm = rank_transform(ScoreMatrix.from_array(scores), "midrank")
        n = rm.n_samples
        assert np.allclose(rm.ranks.sum(axis=1), n * (n + 1) / 2)


class TestRankMatrix:
    def test_strict_permutations_accepted(self):
        rm = RankMatrix([[2, 1, 3, 4], [4, 3, 2, 1]], "strict", ("a", "b"), tuple("wxyz"))
        assert rm.ranks.shape == (2, 4)

    def test_strict_repeated_rank_rejected(self):
        # the second row keeps the row sum of a permutation but repeats rank 2
        with pytest.raises(InvalidInput, match="permutation"):
            RankMatrix([[2, 1, 3, 4], [2, 2, 3, 3]], "strict", ("a", "b"), tuple("wxyz"))
        with pytest.raises(InvalidInput, match="permutation"):
            RankMatrix([[2, 1, 3, 4], [1, 2, 3, 5]], "strict", ("a", "b"), tuple("wxyz"))


class TestDelta:
    def test_perfect_classifier(self):
        assert delta([1, 2, 3, 4], [1, 1, 0, 0]) == 2

    def test_flipped_perfect_classifier(self):
        assert delta([1, 2, 3, 4], [0, 0, 1, 1]) == -2

    def test_interleaved(self):
        assert delta([1, 2, 3, 4], [1, 0, 1, 0]) == 1

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            delta([1, 2, 3], [1, 1, 1])

    def test_exact_rational_result(self):
        d = delta([1, 2, 3, 4, 5], [1, 0, 0, 1, 0])
        assert isinstance(d, Fraction)
        assert d == Fraction(2 + 3 + 5, 3) - Fraction(1 + 4, 2)


class TestAurocFromDelta:
    def test_random_classifier(self):
        assert auroc_from_delta(0.0, 10) == 0.5

    def test_perfect(self):
        assert auroc_from_delta(2, 4) == 1.0

    def test_interleaved(self):
        assert auroc_from_delta(1, 4) == 0.75

    def test_unclamped_outside_unit_interval(self):
        # raw values are preserved; clamping is presentation-only
        assert auroc_from_delta(3.0, 4) > 1.0


class TestAurocRectangle:
    def test_all_positives_first(self):
        assert auroc_rectangle([1, 2, 3, 4], [1, 1, 0, 0]) == 1

    def test_interleaved(self):
        assert auroc_rectangle([1, 2, 3, 4], [1, 0, 1, 0]) == Fraction(3, 4)

    def test_all_positives_last(self):
        assert auroc_rectangle([1, 2, 3, 4], [0, 0, 1, 1]) == 0

    def test_ties_rejected(self):
        with pytest.raises(TiesUnsupported):
            auroc_rectangle([1.5, 1.5, 3], [1, 0, 1])


class TestMannWhitney:
    def test_perfect_ranking(self):
        assert mann_whitney_u0([1, 2, 3, 4], [1, 1, 0, 0]) == 4

    def test_interleaved(self):
        assert mann_whitney_u0([1, 2, 3, 4], [1, 0, 1, 0]) == 3

    def test_identity_with_delta(self):
        # U0 = (N1 N0 / N)(delta + N/2)
        ranks, labels = [1, 2, 3, 4], [1, 0, 1, 0]
        d = delta(ranks, labels)
        assert mann_whitney_u0(ranks, labels) == Fraction(2 * 2, 4) * (d + 2)


def all_labelings(n):
    for bits in itertools.product((0, 1), repeat=n):
        if 0 < sum(bits) < n:
            yield bits


class TestOracleEquivalence:
    """The three AUROC routes agree exactly on tie-free permutations."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small(self, n):
        for perm in itertools.permutations(range(1, n + 1)):
            for labels in all_labelings(n):
                lv = LabelVector(np.array(labels))
                via_delta = auroc_from_delta(delta(perm, lv), n)
                via_rect = auroc_rectangle(perm, lv)
                via_u = Fraction(
                    mann_whitney_u0(perm, lv), lv.n_negative * lv.n_positive
                )
                assert via_delta == via_rect == via_u

    @pytest.mark.parametrize("n", [4, 5])
    def test_rank_reversal_symmetry(self, n):
        for perm in itertools.permutations(range(1, n + 1)):
            for labels in all_labelings(n):
                rev = reverse_ranks(perm, n)
                assert delta(rev, labels) == -delta(perm, labels)
                assert auroc_rectangle(rev, labels) == 1 - auroc_rectangle(perm, labels)

    @pytest.mark.parametrize("n", [4, 5])
    def test_label_flip_symmetry(self, n):
        for perm in itertools.permutations(range(1, n + 1)):
            for labels in all_labelings(n):
                flipped = tuple(1 - lab for lab in labels)
                assert delta(perm, flipped) == -delta(perm, labels)

    def test_symmetries_sampled_larger_n(self):
        rng = np.random.default_rng(11)
        n = 8
        for _ in range(200):
            perm = tuple(int(r) for r in rng.permutation(np.arange(1, n + 1)))
            labels = tuple(int(b) for b in rng.integers(0, 2, size=n))
            if sum(labels) in (0, n):
                continue
            rev = reverse_ranks(perm, n)
            assert delta(rev, labels) == -delta(perm, labels)
            assert auroc_rectangle(rev, labels) == 1 - auroc_rectangle(perm, labels)
            assert delta(perm, tuple(1 - b for b in labels)) == -delta(perm, labels)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32), st.integers(4, 40))
def test_array_path_matches_exact_path(seed, n):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(np.arange(1, n + 1))
    labels = np.zeros(n, dtype=int)
    labels[rng.choice(n, size=rng.integers(1, n), replace=False)] = 1
    if labels.sum() in (0, n):
        return
    exact = delta([int(r) for r in perm], labels)
    assert delta(perm, labels) == pytest.approx(float(exact), abs=1e-12)
    exact_rect = auroc_rectangle([int(r) for r in perm], labels)
    assert auroc_rectangle(perm, labels) == pytest.approx(float(exact_rect), abs=1e-12)
