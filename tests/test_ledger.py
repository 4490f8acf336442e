"""A ledger of how often summa is silently wrong, or flags a right
answer, across the regimes where the maths is weak.

Each regime runs fixed seeds through :func:`summa.run_pipeline`.  A run
is *declined* when the pipeline raises a :class:`summa.SummaError`, and
otherwise *flagged* when the report says the rho is degenerate, flags a
method's recoverability or carries a note, and *silent* when it does none
of these.  Against the sample truth, the AUROC of each method's scores
on the simulated labels and the simulated prevalence, a run is *wrong*
when some reported AUROC is off by more than ``WRONG``, or a measured
rho by more than ``WRONG``; it is *right* when every AUROC, and a
measured rho, is within ``RIGHT``.  A silent run that is wrong is
*silent-wrong*; a flagged run that is right is *flagged-right*.

``RECORDED`` holds each regime's counts at the time the ledger was
added.  A change may lower a regime's silent-wrong count, and should
then lower its record; it may not raise it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from summa import (
    ScoreMatrix,
    SimulationConfig,
    SummaError,
    auroc_rectangle,
    rank_transform,
    run_pipeline,
    simulate_ensemble,
)

# declared once for every regime, not tuned to one
WRONG = 0.1
RIGHT = 0.05

SEEDS = range(700, 710)

# name -> (SimulationConfig fields, whether method 0 is appended once more)
REGIMES = {
    "default": (dict(n_methods=30, n_samples=1000, rho=0.3), False),
    "balanced": (dict(n_methods=30, n_samples=1000, rho=0.5), False),
    "skewed": (dict(n_methods=30, n_samples=1000, rho=0.1), False),
    "few": (dict(n_methods=5, n_samples=100, rho=0.3), False),
    "small": (dict(n_methods=8, n_samples=200, rho=0.3), False),
    "weak": (dict(n_methods=30, n_samples=1000, rho=0.3, auroc_low=0.45, auroc_high=0.6),
             False),
    "duplicate": (dict(n_methods=30, n_samples=1000, rho=0.3), True),
}

# regime -> (declined, flagged, silent, silent-wrong, flagged-right) over SEEDS
RECORDED = {
    "default": (0, 0, 10, 0, 0),
    "balanced": (0, 10, 0, 0, 10),
    "skewed": (0, 0, 10, 2, 0),
    "few": (5, 5, 0, 0, 0),
    "small": (2, 8, 0, 0, 0),
    "weak": (0, 10, 0, 0, 0),
    "duplicate": (0, 1, 9, 6, 0),
}


def outcome(config: SimulationConfig, duplicate: bool) -> set[str]:
    """The ledger's names for one seeded run."""
    data = simulate_ensemble(config)
    values = data.scores.values
    if duplicate:
        values = np.vstack([values, values[:1]])
    ranks = rank_transform(ScoreMatrix.from_array(values), "strict")
    try:
        result = run_pipeline(ranks)
    except SummaError:
        return {"declined"}
    report = result.report
    sample = np.array([auroc_rectangle(row, data.labels) for row in ranks.ranks])
    errors = [np.abs(np.clip(report.aurocs, 0.0, 1.0) - sample).max()]
    if result.tensor is not None:  # the rho was measured
        errors.append(abs(report.rho - data.labels.n_positive / len(data.labels)))
    flagged = report.rho_degenerate or report.recoverability_flagged.any() or report.notes
    if not flagged:
        return {"silent", "silent-wrong"} if max(errors) > WRONG else {"silent"}
    return {"flagged", "flagged-right"} if max(errors) <= RIGHT else {"flagged"}


def ledger(name: str) -> tuple[int, ...]:
    fields, duplicate = REGIMES[name]
    counts = Counter()
    for seed in SEEDS:
        counts.update(outcome(SimulationConfig(**fields, seed=seed), duplicate))
    return tuple(counts[key] for key in
                 ("declined", "flagged", "silent", "silent-wrong", "flagged-right"))


@pytest.mark.parametrize("name", REGIMES)
def test_silent_wrong_does_not_rise(name):
    counts = ledger(name)
    assert counts[0] + counts[1] + counts[2] == len(SEEDS)
    assert counts[3] <= RECORDED[name][3], f"{name}: {counts} against {RECORDED[name]}"
