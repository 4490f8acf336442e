"""Weighted rank aggregation and the unweighted wisdom-of-crowds baseline.

The weighted aggregator scores sample k as

    score_k = sum_i v_i * (rbar - r_ik),        rbar = (N + 1) / 2

and thresholds at zero: positive score => class 1, with a score of
exactly 0 assigned class 0 (the conservative branch; the threshold
convention at 0 is otherwise arbitrary).  rbar is the exact mean of a
tie-free rank row, and midrank rows share the same row sum, so the
identity holds for both tie policies.  Scaling v by any positive
constant changes no label and no ordering.

:func:`evaluate_ensemble` scores aggregate scores against known labels
by the rectangle rule on their strict ranks, which one ``argsort`` of
the scores gives (:func:`summa.ranking._strict_auroc`); no one-row
score or rank matrix is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInput
from .ranking import RankMatrix, _frozen_array, _strict_auroc

# unused here since evaluate_ensemble sorts its scores itself, but the
# benchmark's tracing (perfbench/tracing.py, WRAP_POINTS) rebinds these
# names in this module
from .ranking import auroc_rectangle, rank_transform  # noqa: F401

SUMMA = "summa"
WOC = "woc"


@dataclass(frozen=True, eq=False)
class EnsembleScores:
    """Aggregate per-sample scores (higher => more likely positive) and
    the hard labels derived by thresholding them at zero."""

    scores: np.ndarray
    method: str
    sample_ids: tuple[str, ...] | None = None
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = _frozen_array(self.scores)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", _frozen_array(scores > 0.0, np.int8))

    @property
    def n_samples(self) -> int:
        return self.scores.size


def summa_scores(ranks: RankMatrix, v) -> EnsembleScores:
    """Weighted aggregate score_k = sum_i v_i (rbar - r_ik)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != ranks.n_methods:
        raise InvalidInput(
            f"weight vector length {v.size} does not match {ranks.n_methods} methods"
        )
    rbar = (ranks.n_samples + 1) / 2.0
    scores = v @ (rbar - ranks.ranks)
    scores.setflags(write=False)
    return EnsembleScores(scores, SUMMA, ranks.sample_ids)


def woc_scores(ranks: RankMatrix) -> EnsembleScores:
    """Unweighted baseline: score_k = rbar - mean_i r_ik.

    Equals the weighted aggregate with uniform positive weights up to a
    positive scale, so the two induce identical sample orderings.
    """
    rbar = (ranks.n_samples + 1) / 2.0
    scores = rbar - ranks.ranks.mean(axis=0)
    scores.setflags(write=False)
    return EnsembleScores(scores, WOC, ranks.sample_ids)


def evaluate_ensemble(scores: EnsembleScores, labels) -> float:
    """Rectangle-rule AUROC of aggregate scores against known labels.

    Scores are ranked strictly (ties broken by sample index) before
    applying the rectangle rule; one sort of the scores gives both.
    """
    if scores.sample_ids is not None and len(scores.sample_ids) != scores.n_samples:
        raise InvalidInput("id lists must match the matrix shape")
    return _strict_auroc(scores.scores, labels)
