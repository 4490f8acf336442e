"""Score-to-rank transformation and the rectangle-rule AUROC.

Ranks run 1..N per method, rank 1 being the sample the method is most
confident belongs to the positive class.  The performance measure

    delta = <rank | class 0> - <rank | class 1>

is positive for an informative method under that convention and relates
to the area under the ROC curve by ``auroc = delta / n + 1/2``.

Ranks are computed in-house with one ``argsort`` per block of rows of
about 1 MB; the sorted keys are gathered and the ranks scattered row by
row, which is faster than numpy's ``take_along_axis`` and
``put_along_axis`` over the block.  Equal scores (``-0.0`` equals
``0.0``) form a tie group: midrank gives each member the group's mean
position, strict orders the members by sample index, which
:func:`_break_ties` does for a row with ties in one integer sort.  Both
equal ``scipy.stats.rankdata`` of the negated scores with
``method="average"`` and ``"ordinal"``.

:func:`auroc_rectangle` is the one supervised measure here: it scores
a tie-free rank row against known labels, for ``summa evaluate``.  It
counts concordant pairs in integers, so its float is the correctly
rounded exact AUROC.  :func:`_strict_auroc`, behind
:func:`summa.ensemble.evaluate_ensemble`, gives the same measure of a
score row's strict ranks from one ``argsort`` of the scores, with no
rank row built and no permutation checked; the two share the count,
:func:`_rectangle_rule`, and the checks of the rank route.  The
validations stay cheap: ``RankMatrix`` tests midrank row sums by their
largest deviation and ``LabelVector`` its at most two distinct labels
as a set.

The frozen result types (``ScoreMatrix``, ``RankMatrix``, ``LabelVector``
and :class:`summa.ensemble.EnsembleScores`) hold read-only arrays made
by :func:`_frozen_array`.  It keeps, without a copy, an ``ndarray`` of
the type's dtype that owns its memory and is already read-only; the
producers (:func:`rank_transform`, ``simulate_ensemble``,
``summa_scores`` and ``woc_scores``) freeze the arrays they have just
built and hand them over so.  Anything else is copied and the copy
frozen.  No M x N array is therefore held twice: ranking a score matrix
holds the scores and the ranks once each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateLabels, InvalidInput, TiesUnsupported

STRICT = "strict"
MIDRANK = "midrank"


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``, copied only if needed.

    An ``ndarray`` of exactly that dtype which owns its memory and is
    already read-only is kept as it is: its producer froze it before
    handing it over.  Anything else is copied and the copy frozen, so a
    caller's writeable array, a read-only view of a writeable base, a
    memmap or a ``frombuffer`` array cannot change under the result.
    """
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.base is None and not values.flags.writeable):
        return values
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
            if ranks.min() < 1.0 or ranks.max() > n:
                raise InvalidInput("midrank entries must lie in [1, N]")
            target = n * (n + 1) / 2.0
            # np.allclose's rule at rtol=0; a NaN sum fails the comparison
            if not np.abs(ranks.sum(axis=1) - target).max() <= 1e-6 * target:
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
        # at most two distinct values pass, so a set test beats np.isin
        if not set(values.tolist()) <= {0, 1}:
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


def _break_ties(order: np.ndarray, tied: np.ndarray):
    """Put each tie group's samples in index order, in place, in
    ``order``, an argsort of one row; ``tied[p]`` says sorted positions
    p and p + 1 tie.  One integer sort of (group, sample) keys does it,
    several times faster than a stable argsort of the row."""
    n = order.size
    group = np.empty(n, dtype=np.int64)
    group[0] = 0
    np.cumsum(~tied, out=group[1:])
    group *= n
    order += group
    order.sort()
    order -= group


def rank_transform(scores: ScoreMatrix, tie_policy: str = MIDRANK) -> RankMatrix:
    """Convert scores to per-method ranks; higher score => lower rank number.

    Strict policy breaks ties by ascending sample index; midrank assigns
    tied entries their average rank.  Any strictly increasing transform
    of a method's scores leaves its ranks unchanged.
    """
    if tie_policy not in (STRICT, MIDRANK):
        raise InvalidInput(f"unknown tie policy {tie_policy!r}")
    m, n = scores.values.shape
    # whole-matrix sort temporaries made repeated calls' peak memory erratic
    step = max(1, (1 << 17) // n)
    for lo in range(0, m, step):
        keys = -scores.values[lo:lo + step]
        order = np.argsort(keys, axis=1)
        ordered = np.empty_like(keys)
        for i in range(keys.shape[0]):
            # argsort's indices are in range, so "clip" changes none; it
            # spares the copy of out that the default mode makes
            keys[i].take(order[i], out=ordered[i], mode="clip")
        tied = ordered[:, 1:] == ordered[:, :-1]  # sorted position k + 1 ties k
        del ordered
        by_position = np.broadcast_to(np.arange(1.0, n + 1), keys.shape)
        if tie_policy == STRICT:
            for i in np.flatnonzero(tied.any(axis=1)):
                _break_ties(order[i], tied[i])
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
        if lo == 0:
            # allocated above the first block's scratch arrays, which are
            # freed on return: glibc hands a free heap top past its trim
            # threshold back to the OS, and the next stage would fault it in
            ranks = np.empty((m, n))
        block = ranks[lo:lo + step]
        for i in range(block.shape[0]):
            block[i][order[i]] = by_position[i]  # twice as fast as block[i, order[i]]
    ranks.setflags(write=False)
    return RankMatrix(ranks, tie_policy, scores.method_ids, scores.sample_ids)


def _rectangle_rule(by_rank: np.ndarray, labels: LabelVector) -> float:
    """The AUROC of ``by_rank``, the labels in rank order (entry p the
    label of the sample at rank p + 1), from its concordant pairs.

    The positive at 0-based position p precedes N - 1 - p samples, all
    negatives but for the positives after it; summed over the n1
    positives that is n1 (N - 1) - n1 (n1 - 1) / 2 - (sum of their p),
    counted in integers, so the ratio is correctly rounded.
    """
    n1 = labels.n_positive
    positions = int(np.flatnonzero(by_rank).sum())
    concordant = n1 * (len(labels) - 1) - n1 * (n1 - 1) // 2 - positions
    return concordant / (n1 * labels.n_negative)


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
    return _rectangle_rule(by_rank, labels)


def _strict_auroc(scores, labels) -> float:
    """:func:`auroc_rectangle` of a score row's strict ranks, from one sort.

    Equals ``auroc_rectangle(rank_transform(ScoreMatrix.from_array(
    scores[None]), "strict").ranks[0], labels)``.  The row is sorted by
    descending score with one ``argsort``, tied samples are put in index
    order by :func:`_break_ties`, as in :func:`rank_transform`, and the
    labels are read in that order.
    The checks, in that route's order: equal lengths, at least 2
    samples, finite scores (read off the sorted ends, where argsort puts
    any infinity or NaN) and both classes present.
    """
    labels = LabelVector.coerce(labels)
    keys = -np.asarray(scores, dtype=float)
    if keys.ndim != 1:
        raise InvalidInput("scores must be 1-D")
    n = keys.size
    if len(labels) != n:
        raise InvalidInput("scores and labels must have equal length")
    if n < 2:
        raise InvalidInput(f"need at least 1 method and 2 samples, got 1x{n}")
    order = np.argsort(keys)
    ordered = keys[order]
    if not (-np.inf < ordered[0] and ordered[-1] < np.inf):
        raise InvalidInput("scores must be finite")
    labels.require_both_classes()
    tied = ordered[1:] == ordered[:-1]
    if tied.any():
        _break_ties(order, tied)
    return _rectangle_rule(labels.labels[order], labels)
