"""Score-to-rank transformation and the rectangle-rule AUROC.

Ranks run 1..N per method, rank 1 being the sample the method is most
confident belongs to the positive class.  The performance measure

    delta = <rank | class 0> - <rank | class 1>

is positive for an informative method under that convention and relates
to the area under the ROC curve by ``auroc = delta / n + 1/2``.

Ranks are computed in-house with one ``argsort`` per block of rows of
about 1 MB.  Equal scores (``-0.0`` equals ``0.0``) form a tie group:
midrank gives each member the group's mean position, strict orders the
members by sample index.  Both equal ``scipy.stats.rankdata`` of the
negated scores with ``method="average"`` and ``"ordinal"``.

:func:`auroc_rectangle` is the one supervised measure here: it scores
a tie-free rank row against known labels, for ``summa evaluate`` and
:func:`summa.ensemble.evaluate_ensemble`.  It counts concordant pairs
in integers, so its float is the correctly rounded exact AUROC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateLabels, InvalidInput, TiesUnsupported

STRICT = "strict"
MIDRANK = "midrank"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _rows_are_permutations(ranks: np.ndarray) -> bool:
    """Whether every row of ``ranks`` is a permutation of 1..N.

    The entries must be integers in 1..N (NaN fails the range test);
    then, with row k offset by kN, the M N flat positions they name
    must all be hit, which for M N in-range positions means each once.
    """
    rows = ranks.reshape(-1, ranks.shape[-1])
    m, n = rows.shape
    if not (rows.min() >= 1 and rows.max() <= n):
        return False
    index = rows.astype(np.intp)
    if not (index == rows).all():
        return False
    index += np.arange(-1, m * n - 1, n)[:, None]
    seen = np.zeros(m * n, dtype=bool)
    seen[index.ravel()] = True
    return bool(seen.all())


def _default_ids(prefix: str, n: int) -> tuple[str, ...]:
    width = max(2, len(str(n - 1)))
    return tuple([prefix + str(i).zfill(width) for i in range(n)])


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """M x N matrix of per-method confidence scores (higher => positive)."""

    values: np.ndarray
    method_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise InvalidInput("scores must form a 2-D matrix")
        m, n = values.shape
        if m < 1 or n < 2:
            raise InvalidInput(f"need at least 1 method and 2 samples, got {m}x{n}")
        if not np.all(np.isfinite(values)):
            raise InvalidInput("scores must be finite")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "method_ids", tuple(self.method_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if len(self.method_ids) != m or len(self.sample_ids) != n:
            raise InvalidInput("id lists must match the matrix shape")

    @classmethod
    def from_array(cls, values, method_ids=None, sample_ids=None) -> "ScoreMatrix":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        m, n = values.shape
        return cls(
            values,
            tuple(method_ids) if method_ids is not None else _default_ids("m", m),
            tuple(sample_ids) if sample_ids is not None else _default_ids("s", n),
        )

    @property
    def n_methods(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class RankMatrix:
    """M x N matrix of sample ranks, one row per method.

    Under the strict tie policy every row is a permutation of 1..N;
    under midrank tied entries share their average position, so rows
    still sum to N(N+1)/2.
    """

    ranks: np.ndarray
    tie_policy: str
    method_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        ranks = np.atleast_2d(np.asarray(self.ranks, dtype=float))
        m, n = ranks.shape
        if m < 1 or n < 2:
            raise InvalidInput(f"need at least 1 method and 2 samples, got {m}x{n}")
        if self.tie_policy not in (STRICT, MIDRANK):
            raise InvalidInput(f"unknown tie policy {self.tie_policy!r}")
        if self.tie_policy == STRICT:
            if not _rows_are_permutations(ranks):
                raise InvalidInput("strict rows must each be a permutation of 1..N")
        else:
            if np.any(ranks < 1.0) or np.any(ranks > n):
                raise InvalidInput("midrank entries must lie in [1, N]")
            target = n * (n + 1) / 2.0
            if not np.allclose(ranks.sum(axis=1), target, rtol=0, atol=1e-6 * target):
                raise InvalidInput("midrank rows must sum to N(N+1)/2")
        object.__setattr__(self, "ranks", _frozen_array(ranks))
        object.__setattr__(self, "method_ids", tuple(self.method_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if len(self.method_ids) != m or len(self.sample_ids) != n:
            raise InvalidInput("id lists must match the matrix shape")

    @property
    def n_methods(self) -> int:
        return self.ranks.shape[0]

    @property
    def n_samples(self) -> int:
        return self.ranks.shape[1]


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Binary class labels, 1 = positive."""

    labels: np.ndarray
    n_positive: int = field(init=False)
    n_negative: int = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise InvalidInput("labels must be 1-D")
        values = np.unique(labels)
        if not np.all(np.isin(values, (0, 1))):
            raise InvalidInput(f"labels must be 0/1, got values {values}")
        labels = _frozen_array(labels, dtype=np.int8)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_positive", int(labels.sum()))
        object.__setattr__(self, "n_negative", int(labels.size - labels.sum()))

    @classmethod
    def coerce(cls, labels) -> "LabelVector":
        return labels if isinstance(labels, cls) else cls(np.asarray(labels))

    def __len__(self) -> int:
        return self.labels.size

    def require_both_classes(self):
        if self.n_positive == 0 or self.n_negative == 0:
            raise DegenerateLabels(
                "need at least one sample from each class "
                f"(got {self.n_positive} positive of {len(self)})"
            )


def rank_transform(scores: ScoreMatrix, tie_policy: str = MIDRANK) -> RankMatrix:
    """Convert scores to per-method ranks; higher score => lower rank number.

    Strict policy breaks ties by ascending sample index; midrank assigns
    tied entries their average rank.  Any strictly increasing transform
    of a method's scores leaves its ranks unchanged.
    """
    if tie_policy not in (STRICT, MIDRANK):
        raise InvalidInput(f"unknown tie policy {tie_policy!r}")
    m, n = scores.values.shape
    ranks = np.empty((m, n))
    # whole-matrix sort temporaries made repeated calls' peak memory erratic
    step = max(1, (1 << 17) // n)
    for lo in range(0, m, step):
        keys = -scores.values[lo:lo + step]
        order = np.argsort(keys, axis=1)
        ordered = np.take_along_axis(keys, order, axis=1)
        tied = ordered[:, 1:] == ordered[:, :-1]  # sorted position k + 1 ties k
        del ordered
        by_position = np.broadcast_to(np.arange(1.0, n + 1), keys.shape)
        if tie_policy == STRICT:
            # re-sort only the rows with ties, stably, so ties keep sample order
            rows = tied.any(axis=1)
            order[rows] = np.argsort(keys[rows], axis=1, kind="stable")
        elif tied.any():
            # the tie group spanning sorted positions first..last (0-based)
            # shares the rank (first + last) / 2 + 1, exactly representable
            positions = np.arange(n)
            first = np.where(np.pad(tied, ((0, 0), (1, 0))), 0, positions)
            np.maximum.accumulate(first, axis=1, out=first)
            last = np.where(np.pad(tied, ((0, 0), (0, 1))), n - 1, positions)[:, ::-1]
            np.minimum.accumulate(last, axis=1, out=last)
            first += last[:, ::-1]
            by_position = (first + 2) * 0.5
        np.put_along_axis(ranks[lo:lo + step], order, by_position, axis=1)
    return RankMatrix(ranks, tie_policy, scores.method_ids, scores.sample_ids)


def auroc_rectangle(ranks, labels) -> float:
    """Rectangle-rule AUROC: sum of TPR * (FPR step) walking ranks 1..N.

    Requires strict (permutation) ranks.  The concordant pairs are
    counted in integers and their ratio correctly rounded, so the
    result is the float nearest the exact rational AUROC.
    """
    labels = LabelVector.coerce(labels)
    labels.require_both_classes()
    r = np.asarray(ranks, dtype=float)
    if len(labels) != len(r):
        raise InvalidInput("ranks and labels must have equal length")
    if not _rows_are_permutations(r):
        raise TiesUnsupported(
            "rectangle-rule AUROC is defined only on tie-free rank permutations")
    by_rank = np.empty(len(labels), dtype=np.int8)  # the label at each rank
    by_rank[r.astype(np.intp) - 1] = labels.labels
    true_pos = np.cumsum(by_rank, dtype=np.int64)
    return int(true_pos[by_rank == 0].sum()) / (labels.n_positive * labels.n_negative)
