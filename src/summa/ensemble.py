"""Weighted rank aggregation and the unweighted wisdom-of-crowds baseline.

The weighted aggregator scores sample k as

    score_k = sum_i v_i * (rbar - r_ik),        rbar = (N + 1) / 2

and thresholds at zero: positive score => class 1, with a score of
exactly 0 assigned class 0 (the conservative branch; the threshold
convention at 0 is otherwise arbitrary).  rbar is the exact mean of a
tie-free rank row, and midrank rows share the same row sum, so the
identity holds for both tie policies.  Scaling v by any positive
constant changes no label and no ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInput
from .ranking import (
    LabelVector,
    RankMatrix,
    ScoreMatrix,
    auroc_rectangle,
    rank_transform,
)

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
        scores = np.array(self.scores, dtype=float)
        labels = (scores > 0.0).astype(np.int8)
        scores.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

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
    return EnsembleScores(scores, SUMMA, ranks.sample_ids)


def woc_scores(ranks: RankMatrix) -> EnsembleScores:
    """Unweighted baseline: score_k = rbar - mean_i r_ik.

    Equals the weighted aggregate with uniform positive weights up to a
    positive scale, so the two induce identical sample orderings.
    """
    rbar = (ranks.n_samples + 1) / 2.0
    scores = rbar - ranks.ranks.mean(axis=0)
    return EnsembleScores(scores, WOC, ranks.sample_ids)


def evaluate_ensemble(scores: EnsembleScores, labels) -> float:
    """Rectangle-rule AUROC of aggregate scores against known labels.

    Scores are rank-transformed strictly (ties broken by sample index)
    before applying the rectangle rule.
    """
    labels = LabelVector.coerce(labels)
    if len(labels) != scores.n_samples:
        raise InvalidInput("scores and labels must have equal length")
    matrix = ScoreMatrix.from_array(
        scores.scores[None, :],
        method_ids=(scores.method,),
        sample_ids=scores.sample_ids,
    )
    ranks = rank_transform(matrix, "strict")
    return float(auroc_rectangle(ranks.ranks[0], labels))
