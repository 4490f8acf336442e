"""Aggregation tests: weighted scores, the unweighted baseline and the
evaluation wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.ensemble import (
    EnsembleScores,
    evaluate_ensemble,
    summa_scores,
    woc_scores,
)
from summa.exceptions import DegenerateLabels, InvalidInput
from summa.ranking import LabelVector, RankMatrix, ScoreMatrix, auroc_rectangle, rank_transform


def strict_ranks(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    m, n = rows.shape
    return RankMatrix(
        rows, "strict",
        tuple(f"m{i}" for i in range(m)),
        tuple(f"s{k}" for k in range(n)),
    )


class TestSummaScores:
    def test_single_method_reduction(self):
        ranks = strict_ranks([[1, 2, 3, 4, 5]])
        out = summa_scores(ranks, np.array([1.0]))
        assert out.scores[0] == pytest.approx(3 - 1)
        assert out.labels[0] == 1

    def test_uniform_weights_match_baseline_ordering(self):
        rng = np.random.default_rng(0)
        rows = np.array([rng.permutation(np.arange(1, 21)) for _ in range(5)], float)
        ranks = strict_ranks(rows)
        weighted = summa_scores(ranks, np.full(5, 0.3))
        baseline = woc_scores(ranks)
        # uniform positive weights are the baseline up to a positive scale
        assert np.allclose(weighted.scores, 0.3 * 5 * baseline.scores,
                           rtol=1e-12, atol=1e-12)
        assert np.array_equal(weighted.labels, baseline.labels)

    def test_antagonistic_pair_substitution(self):
        # r2 = N+1-r1 with weights (1, -1) doubles the first method's score
        r1 = np.array([2.0, 4.0, 1.0, 3.0, 5.0])
        ranks = strict_ranks([r1, 6 - r1])
        out = summa_scores(ranks, np.array([1.0, -1.0]))
        assert np.allclose(out.scores, 2 * (3 - r1))

    def test_dimension_mismatch(self):
        ranks = strict_ranks([[1, 2, 3]])
        with pytest.raises(InvalidInput):
            summa_scores(ranks, np.array([1.0, 2.0]))

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(4)
        rows = np.array([rng.permutation(np.arange(1, 31)) for _ in range(6)], float)
        ranks = strict_ranks(rows)
        v = rng.normal(size=6)
        base = summa_scores(ranks, v)
        scaled = summa_scores(ranks, 17.5 * v)
        assert np.array_equal(base.labels, scaled.labels)
        assert np.array_equal(np.argsort(base.scores), np.argsort(scaled.scores))

    def test_perfectly_separable_balanced_labels_recovered(self):
        # every method ranks all positives above all negatives; balanced
        # classes put the zero threshold exactly between the groups
        n, n1 = 10, 5
        labels = np.array([1] * n1 + [0] * (n - n1))
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(4):
            pos = rng.permutation(np.arange(1, n1 + 1))
            neg = rng.permutation(np.arange(n1 + 1, n + 1))
            rows.append(np.concatenate([pos, neg]))
        ranks = strict_ranks(np.array(rows, dtype=float))
        v = rng.uniform(0.3, 1.0, size=4)
        v /= np.linalg.norm(v)
        out = summa_scores(ranks, v)
        assert np.array_equal(out.labels, labels)


class TestWocScores:
    def test_single_method_ordering(self):
        r1 = np.array([3.0, 1.0, 2.0])
        out = woc_scores(strict_ranks([r1]))
        # ascending score order = descending rank-number order
        assert np.array_equal(np.argsort(out.scores), np.argsort(-r1))

    def test_identical_methods(self):
        r1 = np.array([2.0, 1.0, 3.0])
        out = woc_scores(strict_ranks([r1, r1]))
        assert np.allclose(out.scores, 2 - r1)

    def test_exact_cancellation_ties_to_class_zero(self):
        ranks = strict_ranks([[1, 2, 3], [3, 2, 1]])
        out = woc_scores(ranks)
        assert np.allclose(out.scores, 0.0)
        assert np.array_equal(out.labels, [0, 0, 0])


class TestEvaluateEnsemble:
    def test_perfect_scores(self):
        labels = LabelVector(np.array([1, 1, 0, 0]))
        scores = EnsembleScores(np.array([4.0, 3.0, 2.0, 1.0]), "summa")
        assert evaluate_ensemble(scores, labels) == 1.0

    def test_negated_scores_reverse(self):
        labels = LabelVector(np.array([1, 0, 1, 0, 0]))
        rng = np.random.default_rng(9)
        raw = rng.normal(size=5)
        a = evaluate_ensemble(EnsembleScores(raw, "summa"), labels)
        b = evaluate_ensemble(EnsembleScores(-raw, "summa"), labels)
        assert a + b == pytest.approx(1.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(11)
        n = 1000
        labels = LabelVector((rng.random(n) < 0.5).astype(int))
        scores = EnsembleScores(rng.normal(size=n), "woc")
        assert evaluate_ensemble(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_single_class_rejected(self):
        scores = EnsembleScores(np.array([1.0, 2.0]), "woc")
        with pytest.raises(DegenerateLabels):
            evaluate_ensemble(scores, np.array([1, 1]))

    def test_single_class_rejected_for_either_class(self):
        scores = EnsembleScores(np.array([1.0, 2.0, 0.5]), "summa")
        for labels in ([0, 0, 0], [True, True, True]):
            with pytest.raises(DegenerateLabels):
                evaluate_ensemble(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = EnsembleScores(np.array([1.0, bad, 0.5, 0.2]), "summa")
        with pytest.raises(InvalidInput, match="finite"):
            evaluate_ensemble(scores, [1, 0, 1, 0])
        # before the class check, as when the scores were ranked first
        with pytest.raises(InvalidInput, match="finite"):
            evaluate_ensemble(scores, [1, 1, 1, 1])

    def test_length_mismatch_rejected(self):
        scores = EnsembleScores(np.array([1.0, 2.0, 0.5]), "summa")
        for labels in ([1, 0], [1, 0, 1, 0]):
            with pytest.raises(InvalidInput, match="equal length"):
                evaluate_ensemble(scores, labels)

    def test_one_sample_rejected(self):
        with pytest.raises(InvalidInput, match="2 samples"):
            evaluate_ensemble(EnsembleScores(np.array([1.0]), "summa"), [1])

    # few distinct values, so most rows tie; -0.0 and 0.0 compare equal
    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.integers(2, 60))
    def test_equals_rectangle_rule_on_strict_ranks(self, data, n):
        values = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                           st.floats(-1e300, 1e300, allow_nan=False))
        s = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        labels[data.draw(st.permutations(range(n)))[:2]] = (0, 1)
        strict = rank_transform(ScoreMatrix.from_array(s[None]), "strict").ranks[0]
        expected = auroc_rectangle(strict, labels)
        assert evaluate_ensemble(EnsembleScores(s, "woc"), labels) == expected

    @pytest.mark.parametrize("s, labels, expected", [
        ([0.0, -0.0], [1, 0], 1.0),      # equal: sample order decides
        ([-0.0, 0.0], [0, 1], 0.0),
        ([1.0, 1.0], [0, 1], 0.0),
        ([-3.0, 2.0], [0, 1], 1.0),
        ([0.0, -0.0, 0.0, -0.0], [0, 1, 1, 0], 0.5),
    ])
    def test_ties_broken_by_sample_index(self, s, labels, expected):
        assert evaluate_ensemble(EnsembleScores(np.array(s), "woc"), labels) == expected
