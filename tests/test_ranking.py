"""Rank transform and supervised oracle tests.

The delta / rectangle-rule / Mann-Whitney routes to AUROC are checked
against each other exactly (rational arithmetic) on small exhaustive
grids; the full N <= 8 sweep lives in the acceptance suite.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import summa

from summa.ensemble import EnsembleScores, evaluate_ensemble
from summa.exceptions import DegenerateLabels, InvalidInput, TiesUnsupported
from summa.ranking import (
    LabelVector,
    RankMatrix,
    ScoreMatrix,
    auroc_rectangle,
    _default_ids,
    _strict_auroc,
    rank_transform,
)
from summa.simulation import SimulationConfig, simulate_ensemble

from oracles import auroc_from_delta, delta, exact_auroc_rectangle, mann_whitney_u0


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


# few distinct values, so most rows tie; -0.0 and 0.0 compare equal, and
# the neighbours of 1.0 and 0.0 differ from them in their lowest bits only
TIE_PRONE = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.0000000000000002, 0.9999999999999999,
                     -1.0000000000000002, 5e-324]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestRankTransformOracle:
    """Ranks equal scipy's ``rankdata`` bit for bit; it is the oracle only."""

    @staticmethod
    def assert_matches_rankdata(scores):
        sm = ScoreMatrix.from_array(scores)
        for policy, method in (("midrank", "average"), ("strict", "ordinal")):
            ours = rank_transform(sm, policy).ranks
            theirs = rankdata(-sm.values, method=method, axis=1).astype(float)
            assert ours.tobytes() == theirs.tobytes(), policy

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 40), st.data())
    def test_matches_rankdata(self, m, n, data):
        scores = data.draw(st.lists(TIE_PRONE, min_size=m * n, max_size=m * n))
        self.assert_matches_rankdata(np.reshape(scores, (m, n)))

    @pytest.mark.parametrize("scores", [
        [[0.0, -0.0]],
        [[-0.0, 0.0, -0.0, 1.0, 0.0]],
        [[3.0, 3.0]],
        [[2.0, 1.0]],
        [[1.0] * 9],
        [[1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 1.0], [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.5, 9.0]],
    ])
    def test_edge_rows_match_rankdata(self, scores):
        self.assert_matches_rankdata(np.asarray(scores))

    def test_wide_rows_with_and_without_ties(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((6, 5000))
        self.assert_matches_rankdata(scores)
        self.assert_matches_rankdata(np.round(scores, 1))

    def test_several_row_blocks(self):
        # 20 000 samples make blocks of 6 rows: 7 blocks, the last of 4,
        # with tied rows in some blocks only
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((40, 20_000))
        scores[::9] = np.round(scores[::9], 2)
        self.assert_matches_rankdata(scores)

    def test_one_row(self):
        # the shape evaluate ranks: one aggregate score row
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((1, 3000))
        self.assert_matches_rankdata(scores)
        self.assert_matches_rankdata(np.round(scores, 1))

    def test_two_samples(self):
        rng = np.random.default_rng(6)
        self.assert_matches_rankdata(rng.integers(0, 2, size=(9, 2)).astype(float))


class TestPackedSort:
    """Rows whose keys differ only in the low bits that the sort words give
    to the sample index, so that the sorted words leave them in index order
    or tied, under both policies and through ``evaluate_ensemble``."""

    @staticmethod
    def check(scores):
        TestRankTransformOracle.assert_matches_rankdata(scores)
        strict = rank_transform(ScoreMatrix.from_array(scores), "strict").ranks
        rng = np.random.default_rng(0)
        for row, ranks in zip(scores, strict):
            labels = rng.integers(0, 2, size=row.size)
            labels[:2] = (0, 1)
            expected = auroc_rectangle(ranks, labels)
            assert evaluate_ensemble(EnsembleScores(row, "woc"), labels) == expected

    @pytest.mark.parametrize("n", [2**14, 2**14 + 1])
    def test_interleaved_nextafter_pairs(self, n):
        # the sample index takes 14 low bits at 2**14 samples and 15 above
        x = np.sort(np.random.default_rng(n).standard_normal(n - n // 2))
        row = np.empty(n)
        row[0::2] = x
        row[1::2] = np.nextafter(x[:n // 2], np.inf)
        self.check(np.stack([row, -row, row[::-1]]))

    def test_distinct_keys_in_one_bucket(self):
        # 1 + j ulp for j < 2**14 differ in the index bits alone, so every
        # word shares its high bits with its neighbours
        row = np.random.default_rng(12).permutation(1.0 + np.arange(10**4) * np.spacing(1.0))
        self.check(np.stack([row, -row]))

    def test_signed_zeros_among_extremes(self):
        big, tiny = np.finfo(float).max, 5e-324
        pool = [0.0, -0.0, tiny, -tiny, big, -big]
        self.check(np.array([pool + pool[::-1]]))
        self.check(np.random.default_rng(13).choice(pool, size=(5, 200)))

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
    def test_non_finite_scores_refused(self, bad):
        # NaN and infinities would sort by their bits, so they are tested first
        for at in (0, 2, 4):
            scores = np.array([0.3, -1.0, 2.0, 0.0, 1.0])
            scores[at] = bad
            with pytest.raises(InvalidInput, match="^scores must be finite$"):
                _strict_auroc(scores, [1, 0, 1, 0, 0])


def test_import_leaves_scipy_stats_out():
    # nor the process pool, which only a parallel sweep needs, nor the
    # modules summa imports only where it uses them
    lazy = ["mmap", "signal", "traceback", "statistics", "decimal"]
    code = ("import sys, summa, summa.cli; "
            "print('scipy.stats' in sys.modules, 'fractions' in sys.modules, "
            "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
            "'concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules, "
            f"[m for m in {lazy!r} if m in sys.modules])")
    src = str(Path(summa.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False False False False False []"


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 10**4])
def test_default_ids_match_format_spec(n):
    width = max(2, len(str(n - 1)))
    assert _default_ids("s", n) == tuple(f"s{i:0{width}d}" for i in range(n))


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
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(InvalidInput, match="permutation"):
                RankMatrix([[2, 1, 3, 4], [1, 2, bad, 4]], "strict", ("a", "b"), tuple("wxyz"))

    def test_strict_check_matches_sorted_rows(self):
        # the sorted-row comparison is the reference predicate
        rng = np.random.default_rng(44)
        for _ in range(2000):
            m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            rows = np.array([rng.permutation(n) + 1.0 for _ in range(m)])
            k = rng.integers(0, 5)
            cell = rng.integers(m), rng.integers(n)
            if k == 1:
                rows[cell] = rng.integers(-1, n + 3)
            elif k == 2:
                rows[cell] += 0.5
            elif k == 3:
                rows[cell] = rng.choice([np.nan, np.inf, -np.inf])
            expected = bool((np.sort(rows, axis=1) == np.arange(1.0, n + 1)).all())
            ids = tuple(f"s{i}" for i in range(n))
            try:
                RankMatrix(rows, "strict", tuple(f"m{i}" for i in range(m)), ids)
                accepted = True
            except InvalidInput:
                accepted = False
            assert accepted == expected, rows

    def test_midrank_row_sum_tolerance(self):
        # the row-sum check keeps np.allclose(sums, N(N+1)/2, rtol=0,
        # atol=1e-6 N(N+1)/2) as its rule: sweep the first rank across the
        # tolerance's edge in steps of 2**-50, finer than the sum's rounding
        n, target = 4, 10.0
        atol = 1e-6 * target
        deviations = {True: [], False: []}
        for k in range(-12, 13):
            row = np.array([1.0 + atol + k * 2.0**-50, 2.0, 3.0, 4.0])
            expected = np.allclose(row.sum(), target, rtol=0, atol=atol)
            try:
                RankMatrix([row], "midrank", ("a",), tuple("wxyz"))
                accepted = True
            except InvalidInput as err:
                assert "sum to N(N+1)/2" in str(err)
                accepted = False
            assert accepted == expected, k
            deviations[accepted].append(row.sum() - target)
        # the largest sum accepted and the smallest rejected are neighbours
        assert max(deviations[True]) <= atol < min(deviations[False])
        assert min(deviations[False]) - max(deviations[True]) == np.spacing(target)
        for bad in (np.nan, 1.0 - atol):
            with pytest.raises(InvalidInput):
                RankMatrix([[bad, 2.0, 3.0, 4.0]], "midrank", ("a",), tuple("wxyz"))


class TestLabelVector:
    @pytest.mark.parametrize("labels", [
        [True, False, True], [1.0, 0.0, 0.0], [-0.0, 1.0], [1, 1], np.array([0, 1], np.uint8),
    ])
    def test_zero_one_accepted(self, labels):
        lv = LabelVector(np.asarray(labels))
        assert lv.labels.dtype == np.int8
        assert lv.labels.tolist() == [int(x) for x in labels]

    @pytest.mark.parametrize("labels", [
        [0.5, 1.0], [2, 0], [-1, 0], [np.nan, 1.0], [np.inf, 0.0], ["0", "1"], ["a", "b"],
    ])
    def test_other_values_rejected_with_their_list(self, labels):
        values = np.unique(np.asarray(labels))
        with pytest.raises(InvalidInput) as err:
            LabelVector(np.asarray(labels))
        assert str(err.value) == f"labels must be 0/1, got values {values}"


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: ScoreMatrix(np.zeros((2, 2, 2)), ("a", "b"), ("x", "y")),
                 "2-D matrix", id="ScoreMatrix 3-D"),
    pytest.param(lambda: ScoreMatrix([[0.5]], ("a",), ("x",)),
                 "2 samples, got 1x1", id="ScoreMatrix one sample"),
    pytest.param(lambda: ScoreMatrix([[0.5, 0.1]], ("a", "b"), ("x", "y")),
                 "id lists", id="ScoreMatrix ids"),
    pytest.param(lambda: RankMatrix([[1.0]], "strict", ("a",), ("x",)),
                 "2 samples, got 1x1", id="RankMatrix one sample"),
    pytest.param(lambda: RankMatrix([[1.0, 2.0]], "dense", ("a",), ("x", "y")),
                 "unknown tie policy 'dense'", id="RankMatrix policy"),
    pytest.param(lambda: RankMatrix([[1.0, 2.0]], "strict", ("a",), ("x",)),
                 "id lists", id="RankMatrix ids"),
    pytest.param(lambda: LabelVector(np.zeros((2, 2))), "1-D", id="LabelVector 2-D"),
    pytest.param(lambda: auroc_rectangle([1, 2, 3], [1, 0]), "equal length",
                 id="auroc_rectangle lengths"),
    pytest.param(lambda: _strict_auroc(np.zeros((2, 2)), [1, 0]), "1-D",
                 id="_strict_auroc 2-D"),
])
def test_malformed_input_rejected(make, message):
    with pytest.raises(InvalidInput, match=message):
        make()


# each frozen type, the array it keeps, and a valid source for it
FROZEN_TYPES = [
    pytest.param(lambda a: ScoreMatrix.from_array(a).values,
                 np.array([[0.3, -1.0, 2.5], [0.0, 0.7, 0.2]]), id="ScoreMatrix"),
    pytest.param(lambda a: RankMatrix(a, "strict", ("a", "b"), ("x", "y", "z")).ranks,
                 np.array([[2.0, 1.0, 3.0], [3.0, 1.0, 2.0]]), id="RankMatrix"),
    pytest.param(lambda a: EnsembleScores(a, "summa").scores,
                 np.array([0.5, -1.0, 2.0]), id="EnsembleScores"),
    pytest.param(lambda a: LabelVector(a).labels,
                 np.array([1, 0, 1], dtype=np.int8), id="LabelVector"),
]


@pytest.mark.parametrize("field, source", FROZEN_TYPES)
def test_frozen_type_copies_unless_handed_a_frozen_owner(field, source):
    assert np.array_equal(field(source.tolist()), source)

    writeable = source.copy()
    kept = field(writeable)
    writeable[...] = 0
    assert np.array_equal(kept, source) and not kept.flags.writeable

    base = source.copy()
    view = base[...]
    view.setflags(write=False)
    kept = field(view)
    base[...] = 0
    assert np.array_equal(kept, source) and not kept.flags.writeable

    owner = source.copy()
    owner.setflags(write=False)
    assert field(owner) is owner


@pytest.fixture
def traced_peak():
    """A function giving a call's traced peak, in bytes above what was
    traced before it; tracing stops when the test ends."""
    def measure(call):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    yield measure
    tracemalloc.stop()


# a producer that hands its fresh M x N array over without a copy holds
# fewer than two of them at once
PEAK_M, PEAK_N = 30, 20_000
PEAK_BOUND = 2 * PEAK_M * PEAK_N * 8


def test_rank_transform_peak_memory(traced_peak):
    # the strict policy adds the permutation check, run a block at a time
    scores = simulate_ensemble(SimulationConfig(n_methods=PEAK_M, n_samples=PEAK_N)).scores
    for policy in ("midrank", "strict"):
        assert traced_peak(lambda: rank_transform(scores, policy)) < PEAK_BOUND, policy


def test_simulate_ensemble_peak_memory(traced_peak):
    config = SimulationConfig(n_methods=PEAK_M, n_samples=PEAK_N)
    simulate_ensemble(SimulationConfig(n_methods=2, n_samples=4))  # its lazy import
    assert traced_peak(lambda: simulate_ensemble(config)) < PEAK_BOUND


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

    @pytest.mark.parametrize("ranks", [
        [1.5, 1.5, 3.0],   # midranks
        [1.0, 2.5, 3.0],   # non-integer, yet it truncates to a permutation
        [1.0, 1.0, 3.0],   # a repeated rank
        [2.0, 3.0, 3.0],
        [0.0, 1.0, 2.0],   # out of range, below
        [1.0, 2.0, 4.0],   # out of range, above
        [1.0, 2.0, np.nan],
        [1.0, 2.0, np.inf],
    ])
    def test_array_path_rejects_non_permutations(self, ranks):
        with pytest.raises(TiesUnsupported):
            auroc_rectangle(np.asarray(ranks), [1, 0, 1])
        if np.all(np.isfinite(ranks)):
            with pytest.raises(TiesUnsupported):
                auroc_rectangle(ranks, [1, 0, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(2, 300))
    def test_array_path_is_float_of_exact_path(self, seed, n):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(np.arange(1, n + 1)).astype(float)
        labels = rng.integers(0, 2, size=n)
        labels[rng.choice(n, size=2, replace=False)] = (0, 1)
        value = auroc_rectangle(perm, labels)
        exact = exact_auroc_rectangle([int(r) for r in perm], labels)
        assert isinstance(exact, Fraction)
        assert type(value) is float
        assert value == float(exact)


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
                via_rect = exact_auroc_rectangle(perm, lv)
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
                assert (exact_auroc_rectangle(rev, labels)
                        == 1 - exact_auroc_rectangle(perm, labels))

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
            assert (exact_auroc_rectangle(rev, labels)
                    == 1 - exact_auroc_rectangle(perm, labels))
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
    exact_rect = exact_auroc_rectangle([int(r) for r in perm], labels)
    assert auroc_rectangle(perm, labels) == pytest.approx(float(exact_rect), abs=1e-12)
