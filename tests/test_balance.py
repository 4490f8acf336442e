"""Acceptance at and near balance: the prevalence interval from the
jackknifed tensor stage.

At rho = 1/2 the third moments carry no sign, so an honest run either
lands near 1/2 or flags its estimate as degenerate (its interval
contains 1/2).  Away from balance, on the default design, no run is
flagged, and the interval covers the true prevalence.  Seeds 0-39 are
disjoint from the seeds on which the jackknife's block count and
z cutoff were chosen.
"""

import pytest

from summa.pipeline import run_pipeline
from summa.ranking import rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble

SEEDS = range(40)


def runs(m, n, rho):
    """(estimated rho, interval, flagged) per seed."""
    rows = []
    for seed in SEEDS:
        data = simulate_ensemble(SimulationConfig(n_methods=m, n_samples=n, rho=rho, seed=seed))
        report = run_pipeline(rank_transform(data.scores, "midrank")).report
        rows.append((report.rho, report.rho_interval, report.rho_degenerate))
    return rows


@pytest.fixture(scope="module")
def default_balanced():
    return runs(30, 1000, 0.5)


@pytest.fixture(scope="module")
def default_skewed():
    return runs(30, 1000, 0.3)


@pytest.mark.parametrize("design", ["default", "small"])
def test_balanced_runs_are_close_or_flagged(design, default_balanced):
    rows = default_balanced if design == "default" else runs(12, 400, 0.5)
    confident_misses = [
        (seed, round(rho, 3)) for seed, (rho, _, flagged) in zip(SEEDS, rows)
        if not flagged and abs(rho - 0.5) > 0.05
    ]
    flagged = sum(row[2] for row in rows)
    assert confident_misses == [], f"{flagged}/40 flagged; unflagged misses {confident_misses}"


def test_skewed_default_design_is_never_flagged(default_skewed):
    flagged = [seed for seed, row in zip(SEEDS, default_skewed) if row[2]]
    assert flagged == []


@pytest.mark.parametrize("rho_true", [0.5, 0.3])
def test_interval_covers_true_prevalence(rho_true, default_balanced, default_skewed):
    rows = default_balanced if rho_true == 0.5 else default_skewed
    covered = sum(low <= rho_true <= high for _, (low, high), _ in rows)
    assert covered >= 36, f"interval covers rho = {rho_true} in {covered}/40 seeds"
    # the estimate lies inside its own interval
    assert all(low <= rho <= high for rho, (low, high), _ in rows)
