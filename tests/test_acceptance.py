"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Statistical criteria use fixed seeds, so results are reproducible
bit-for-bit; thresholds below are the release contract.
"""

import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from summa.cli import _SWEEP_AXES, _axis_value, _replicate_seed, _sweep_replicate, main
from summa.decomposition import recover_rank1_matrix, recover_rank1_tensor, resolve_sign
from summa.ensemble import evaluate_ensemble
from summa.exceptions import SummaError
from summa.moments import CentredRanks
from summa.pipeline import run_pipeline
from summa.ranking import LabelVector, rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble

from oracles import (
    ConditionalRankModel,
    auroc_from_delta,
    delta,
    exact_auroc_rectangle,
    exact_central_moment,
    mann_whitney_u0,
    predicted_central_moment,
)


def _verdict(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1 and 2: AUROC recovery correlation and ensemble ordering on the
# default balanced design (M=30, N=1000, rho=0.5, AUROCs uniform 0.4..0.8)
# ---------------------------------------------------------------------------

N_SEEDS = 50


@pytest.fixture(scope="module")
def balanced_runs():
    rows = []
    start = time.perf_counter()
    for seed in range(N_SEEDS):
        data = simulate_ensemble(SimulationConfig(seed=seed))
        ranks = rank_transform(data.scores, "midrank")
        result = run_pipeline(ranks, prevalence=0.5)
        rows.append({
            "corr": float(np.corrcoef(result.report.aurocs, data.true_aurocs)[0, 1]),
            "summa": evaluate_ensemble(result.summa, data.labels),
            "woc": evaluate_ensemble(result.woc, data.labels),
            "best_true": float(data.true_aurocs.max()),
        })
    return rows, time.perf_counter() - start


def test_auroc_recovery_correlation(balanced_runs):
    rows, elapsed = balanced_runs
    hits = sum(row["corr"] >= 0.90 for row in rows)
    ok = hits >= 45 and elapsed < 10.0
    _verdict(
        "auroc-recovery-correlation",
        ok,
        f"corr >= 0.90 in {hits}/{N_SEEDS} seeds "
        f"(median {np.median([r['corr'] for r in rows]):.4f}), "
        f"runtime {elapsed:.2f}s (< 10s)",
    )


def test_ensemble_ordering(balanced_runs):
    rows, _ = balanced_runs
    beats_woc = sum(row["summa"] > row["woc"] for row in rows)
    beats_best = sum(row["summa"] >= row["best_true"] for row in rows)
    ok = beats_woc >= 45 and beats_best >= 40
    _verdict(
        "ensemble-ordering",
        ok,
        f"aggregate > unweighted in {beats_woc}/{N_SEEDS}, "
        f">= best base in {beats_best}/{N_SEEDS} "
        f"(mean aggregate {np.mean([r['summa'] for r in rows]):.3f}, "
        f"mean unweighted {np.mean([r['woc'] for r in rows]):.3f})",
    )


# ---------------------------------------------------------------------------
# criterion 3: the three AUROC routes agree exactly over every permutation
# and two-class labeling for N <= 8
# ---------------------------------------------------------------------------

def _all_labelings(n):
    for bits in itertools.product((0, 1), repeat=n):
        if 0 < sum(bits) < n:
            yield bits


def _exact_triple(ranks, lv):
    """The three routes as exact rationals."""
    via_delta = auroc_from_delta(delta(ranks, lv), len(lv))
    via_rect = exact_auroc_rectangle(ranks, lv)
    via_u = Fraction(mann_whitney_u0(ranks, lv), lv.n_negative * lv.n_positive)
    return via_delta, via_rect, via_u


def _direct_exhaustive(n) -> int:
    """All permutations x labelings through the oracles, exact equality."""
    checked = 0
    for labels in _all_labelings(n):
        lv = LabelVector(np.array(labels))
        for perm in itertools.permutations(range(1, n + 1)):
            a, b, c = _exact_triple(perm, lv)
            assert a == b == c
            checked += 1
    return checked


def _vectorized_exhaustive(n) -> int:
    """All permutations x labelings in exact int64 arithmetic.

    For each pair the three statistics reduce to integer identities over
    the class-0 rank sum S0 and the concordant pair count:

        delta route:  2(S0 N1 - S1 N0) + N N0 N1 == 2 N U0
        rectangle:    concordant == U0

    both over the common denominator 2 N N0 N1.  int64 is exact at these
    magnitudes, so passing is equality of rationals, not approximation.
    """
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    order = np.argsort(perms, axis=1)  # sample index occupying each rank slot
    total = n * (n + 1) // 2
    checked = 0
    for labels in _all_labelings(n):
        sigma = np.array(labels, dtype=np.int64)
        n1 = int(sigma.sum())
        n0 = n - n1
        s0 = perms[:, sigma == 0].sum(axis=1)
        s1 = total - s0
        u0 = s0 - n0 * (n0 + 1) // 2
        lhs = 2 * (s0 * n1 - s1 * n0) + n * n0 * n1
        assert np.array_equal(lhs, 2 * n * u0)
        by_rank = sigma[order]
        before = np.cumsum(by_rank, axis=1) - by_rank
        concordant = ((1 - by_rank) * before).sum(axis=1)
        assert np.array_equal(concordant, u0)
        checked += perms.shape[0]
    return checked


def _representative_classes(n) -> int:
    """Oracle calls on one representative of every value class.

    All three statistics depend on (permutation, labeling) only through
    the labeling and the set of ranks held by class 0 (witnessed
    directly for N <= 6 by the full sweep), so checking one permutation
    per (labeling, class-0 rank set) pins the oracles to the integer
    identities verified vectorized above, across every distinct input
    class.
    """
    checked = 0
    all_ranks = set(range(1, n + 1))
    for labels in _all_labelings(n):
        lv = LabelVector(np.array(labels))
        zeros = [k for k, lab in enumerate(labels) if lab == 0]
        ones = [k for k, lab in enumerate(labels) if lab == 1]
        for rank_set in itertools.combinations(sorted(all_ranks), len(zeros)):
            perm = [0] * n
            for sample, rank in zip(zeros, rank_set):
                perm[sample] = rank
            for sample, rank in zip(ones, sorted(all_ranks - set(rank_set))):
                perm[sample] = rank
            a, b, c = _exact_triple(tuple(perm), lv)
            assert a == b == c
            s0 = sum(rank_set)
            u0 = s0 - len(zeros) * (len(zeros) + 1) // 2
            assert c == Fraction(u0, len(zeros) * len(ones))
            checked += 1
    return checked


def test_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    direct = sum(_direct_exhaustive(n) for n in range(2, 7))
    vectorized = sum(_vectorized_exhaustive(n) for n in (7, 8))
    grounded = sum(_representative_classes(n) for n in (7, 8))
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _verdict(
        "oracle-equivalence",
        ok,
        f"{direct} direct cases (N<=6), {vectorized} exact-integer cases "
        f"(N=7,8), {grounded} oracle-grounded value classes, "
        f"runtime {elapsed:.2f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: enumeration oracle equals the factorized closed form
# ---------------------------------------------------------------------------

def test_central_moment_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    instances = 0
    for order in (2, 3, 4):
        for _ in range(35):
            support = int(rng.integers(2, 11))
            p0 = rng.random((order, support)) + 0.02
            p1 = rng.random((order, support)) + 0.02
            p0 /= p0.sum(axis=1, keepdims=True)
            p1 /= p1.sum(axis=1, keepdims=True)
            model = ConditionalRankModel(p0, p1, float(rng.uniform(0.05, 0.95)))
            enumerated = exact_central_moment(model, tuple(range(order)))
            closed = predicted_central_moment(
                model.rho, [model.delta(i) for i in range(order)]
            )
            worst = max(worst, abs(enumerated - closed))
            instances += 1
    ok = worst <= 1e-12 and instances >= 100
    _verdict(
        "central-moment-identity",
        ok,
        f"{instances} random models, orders 2-4, worst |enum - closed| = {worst:.2e} "
        f"(<= 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 5: noiseless rank-one recovery, matrix and tensor
# ---------------------------------------------------------------------------

def test_noiseless_recovery():
    rng = np.random.default_rng(505)
    worst_matrix = 0.0
    trials = 0
    for m in range(4, 13):
        for _ in range(12):
            while True:
                q = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
                squares = q * q
                if 2 * squares.max() < 0.9 * squares.sum():
                    break
            d0 = rng.uniform(-0.5, 2.0, size=m)
            rec = recover_rank1_matrix(
                np.outer(q, q) + np.diag(d0), tol=1e-12, max_iter=5000
            )
            q_rec = np.sqrt(rec.lambda_) * rec.v
            err = min(np.abs(q_rec - q).max(), np.abs(q_rec + q).max())
            worst_matrix = max(worst_matrix, err)
            trials += 1

    worst_tensor = 0.0
    tensor_trials = 0
    for m in range(5, 11):
        for _ in range(8):
            a = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
            hint = resolve_sign(a / np.linalg.norm(a))
            # one sample a: the tensor (1/N) sum_k c_k c_k c_k is a (x) a (x) a
            rec = recover_rank1_tensor(CentredRanks.from_centred(a[:, None]), hint)
            a_rec = np.cbrt(rec.lambda_t) * rec.u
            worst_tensor = max(worst_tensor, float(np.abs(a_rec - a).max()))
            tensor_trials += 1

    ok = trials >= 100 and worst_matrix < 1e-8 and worst_tensor < 1e-6
    _verdict(
        "noiseless-recovery",
        ok,
        f"matrix: {trials} instances (M=4..12), worst error {worst_matrix:.2e} (< 1e-8); "
        f"tensor: {tensor_trials} instances (M=5..10), worst error {worst_tensor:.2e} (< 1e-6)",
    )


# ---------------------------------------------------------------------------
# criterion 6: prevalence recovery through the tensor path
# ---------------------------------------------------------------------------

def test_prevalence_recovery():
    details = []
    ok = True
    for rho_true in (0.3, 0.7):
        close = 0
        side_wrong = 0
        degenerate = 0
        for rep in range(30):
            config = SimulationConfig(
                n_methods=20, n_samples=5000, rho=rho_true,
                auroc_low=0.55, auroc_high=0.8,
                seed=600_000 + rep + int(rho_true * 1000),
            )
            data = simulate_ensemble(config)
            ranks = rank_transform(data.scores, "midrank")
            result = run_pipeline(ranks)
            rho_hat = result.report.rho
            if abs(rho_hat - rho_true) <= 0.05:
                close += 1
            if result.report.rho_degenerate:
                degenerate += 1
            elif (rho_hat - 0.5) * (rho_true - 0.5) <= 0:
                side_wrong += 1
        ok = ok and close >= 27 and side_wrong == 0
        details.append(
            f"rho={rho_true}: within 0.05 in {close}/30, wrong side in "
            f"{side_wrong} non-degenerate ({degenerate} degenerate)"
        )
    _verdict("prevalence-recovery", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: sensitivity trends along the method/sample/prevalence axes
# ---------------------------------------------------------------------------

REPLICATES = 30
SWEEP_BASE = SimulationConfig(
    n_methods=30, n_samples=1000, rho=0.5, auroc_low=0.4, auroc_high=0.8, seed=777,
)


def _axis_medians(axis, values):
    medians = {}
    field = _SWEEP_AXES[axis][0]
    for vi, value in enumerate(values):
        corrs = [
            _sweep_replicate((
                axis, value, rep,
                replace(SWEEP_BASE, **{field: _axis_value(axis, value),
                                       "seed": _replicate_seed(SWEEP_BASE.seed, vi, rep)}),
                1e-6, 1000,
            ))["corr_inferred_true"]
            for rep in range(REPLICATES)
        ]
        medians[value] = float(np.nanmedian(corrs))
    return medians


def test_sensitivity_trends():
    by_methods = _axis_medians("methods", ["5", "10", "15", "20", "25", "30"])
    by_samples = _axis_medians("samples", ["30", "250", "1000", "4000"])
    by_rho = _axis_medians("prevalence", ["0.1", "0.5", "0.9"])

    high_m = [by_methods[v] for v in ("15", "20", "25", "30")]
    methods_ok = by_methods["5"] < min(high_m) and min(high_m) >= 0.95

    sample_values = [by_samples[v] for v in ("30", "250", "1000", "4000")]
    samples_ok = all(b >= a for a, b in zip(sample_values, sample_values[1:]))

    rho_ok = by_rho["0.5"] > by_rho["0.1"] and by_rho["0.5"] > by_rho["0.9"]

    ok = methods_ok and samples_ok and rho_ok
    _verdict(
        "sensitivity-trends",
        ok,
        f"methods medians {by_methods} rising and >= 0.95 from M=15: {methods_ok}; "
        f"samples medians {by_samples} nondecreasing: {samples_ok}; "
        f"prevalence medians {by_rho} peak at 0.5: {rho_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns of simulate and infer
# ---------------------------------------------------------------------------

def test_determinism(tmp_path):
    data_files = ("scores.csv", "labels.csv", "true_aurocs.csv")
    for name in ("a", "b"):
        code = main([
            "simulate", "--seed", "99", "--methods", "12", "--samples", "400",
            "--output-dir", str(tmp_path / f"sim_{name}"),
        ])
        assert code == 0
    sim_same = all(
        (tmp_path / "sim_a" / f).read_bytes() == (tmp_path / "sim_b" / f).read_bytes()
        for f in data_files
    )

    infer_files = (
        "report.json", "method_estimates.csv",
        "ensemble_scores.csv", "ensemble_labels.csv",
    )
    for name in ("a", "b"):
        code = main([
            "infer", str(tmp_path / "sim_a" / "scores.csv"),
            "--prevalence", "0.5",
            "--output-dir", str(tmp_path / f"inf_{name}"),
        ])
        assert code == 0
    inf_same = all(
        (tmp_path / "inf_a" / f).read_bytes() == (tmp_path / "inf_b" / f).read_bytes()
        for f in infer_files
    )
    _verdict(
        "determinism",
        sim_same and inf_same,
        f"simulate outputs identical: {sim_same}; infer outputs identical: {inf_same}",
    )
