"""Second- and third-order central moments of rank predictions.

For methods that rank samples independently given the latent class, the
order-l central moment over any l distinct methods factorizes as

    Q_l = rho (1 - rho) (rho^(l-1) - (rho - 1)^(l-1)) * prod_j delta_j

where rho is the positive-class prevalence and delta_j the conditional
mean-rank difference of method j.  At l = 2 this gives the off-diagonal
covariance rho(1-rho) delta_i delta_j; at l = 3 the factor in front of
the product is rho(1-rho)(2 rho - 1), so the third moment's sign tells
which class is the majority.

Covariances are population-normalized (divide by N): that is what makes
the variance of a tie-free rank row exactly (N^2 - 1) / 12.

Third moments are never stored as an M x M x M array here:
:func:`third_moment_offdiag` returns the centred rank matrix C, and the
tensor (1/N) sum_k c_k (x) c_k (x) c_k is contracted from it, in O(MN)
per contraction, by :func:`summa.decomposition.recover_rank1_tensor`.
Only its distinct-index entries follow the factorization above; an
entry with a repeated index pairs a method with itself, and tensor
recovery imputes it from its rank-one iterate instead.

:func:`exact_central_moment` is a brute-force enumeration oracle over a
small factorized model, kept independent of the closed form above so the
two can be checked against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, TooFewMethods
from .ranking import RankMatrix

# Enumeration cost caps for the exact oracle.
MAX_ORACLE_SUPPORT = 12
MAX_ORACLE_METHODS = 5


def _as_rank_array(ranks) -> np.ndarray:
    if isinstance(ranks, RankMatrix):
        return np.asarray(ranks.ranks, dtype=float)
    arr = np.atleast_2d(np.asarray(ranks, dtype=float))
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InvalidInput("ranks must form an M x N matrix with N >= 2")
    return arr


def covariance_matrix(ranks) -> np.ndarray:
    """Population covariance (1/N) of the M rank rows."""
    r = _as_rank_array(ranks)
    centered = r - r.mean(axis=1, keepdims=True)
    return centered @ centered.T / r.shape[1]


def third_moment_offdiag(ranks) -> np.ndarray:
    """Centred rank rows C (M x N), the sample form of the third moments.

    The central third moment of methods i, j, l is mean(c_i c_j c_l);
    :func:`summa.decomposition.recover_rank1_tensor` contracts the
    tensor of those moments straight from C.
    """
    r = _as_rank_array(ranks)
    m = r.shape[0]
    if m < 3:
        raise TooFewMethods(f"third moments need at least 3 methods, got {m}")
    return r - r.mean(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class ConditionalRankModel:
    """Factorized rank model: per-method rank distributions given the class.

    ``p0[i, r-1]`` / ``p1[i, r-1]`` give method i's probability of
    assigning rank r to a negative / positive sample; ``rho`` is the
    positive-class prevalence.  Methods draw independently given the
    class, so joint moments factorize.
    """

    p0: np.ndarray
    p1: np.ndarray
    rho: float

    def __post_init__(self):
        p0 = np.atleast_2d(np.asarray(self.p0, dtype=float))
        p1 = np.atleast_2d(np.asarray(self.p1, dtype=float))
        if p0.shape != p1.shape:
            raise InvalidInput("p0 and p1 must share a support and method count")
        if np.any(p0 < 0) or np.any(p1 < 0):
            raise InvalidInput("probabilities must be nonnegative")
        for name, p in (("p0", p0), ("p1", p1)):
            if not np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-9):
                raise InvalidInput(f"each {name} row must sum to 1")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInput("rho must lie strictly inside (0, 1)")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    @property
    def n_methods(self) -> int:
        return self.p0.shape[0]

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.p0.shape[1] + 1, dtype=float)

    def mean_rank(self, i: int) -> float:
        marginal = self.rho * self.p1[i] + (1.0 - self.rho) * self.p0[i]
        return float(marginal @ self.support)

    def delta(self, i: int) -> float:
        """Conditional mean-rank difference <r|0> - <r|1> for method i."""
        return float((self.p0[i] - self.p1[i]) @ self.support)

    def sample(self, n_samples: int, rng: np.random.Generator):
        """Draw labels and per-method conditional rank columns.

        Returns ``(ranks, labels)`` with ranks shaped (M, n_samples).
        Draws are i.i.d. across samples; rows are generally not
        permutations, which the moment estimators do not require.
        """
        labels = (rng.random(n_samples) < self.rho).astype(np.int8)
        m, s = self.p0.shape
        ranks = np.empty((m, n_samples), dtype=float)
        support = self.support
        for i in range(m):
            neg = rng.choice(support, size=n_samples, p=self.p0[i])
            pos = rng.choice(support, size=n_samples, p=self.p1[i])
            ranks[i] = np.where(labels == 1, pos, neg)
        return ranks, labels


def exact_central_moment(model: ConditionalRankModel, subset, order: int | None = None) -> float:
    """Order-l central moment over a method subset by full joint enumeration.

    Walks every rank combination of the factorized joint distribution,
    weighting centered products by their probability under each class.
    The order equals the number of (distinct) methods in ``subset``;
    passing ``order`` explicitly just asserts that count.  Support and
    method counts are capped to keep enumeration tractable.
    """
    methods = tuple(subset)
    l = len(methods)
    if order is not None and order != l:
        raise InvalidInput(f"order {order} does not match {l} selected methods")
    if l < 2:
        raise InvalidInput("central moments need at least 2 methods")
    if len(set(methods)) != l:
        raise InvalidInput("method subset must be distinct")
    if l > MAX_ORACLE_METHODS or model.n_methods > MAX_ORACLE_METHODS:
        raise InvalidInput(f"enumeration oracle capped at {MAX_ORACLE_METHODS} methods")
    support_size = model.p0.shape[1]
    if support_size > MAX_ORACLE_SUPPORT:
        raise InvalidInput(f"enumeration oracle capped at support {MAX_ORACLE_SUPPORT}")

    means = [model.mean_rank(i) for i in methods]
    support = model.support
    terms = []
    for class_prob, table in ((model.rho, model.p1), (1.0 - model.rho, model.p0)):
        rows = [table[i] for i in methods]
        for combo in itertools.product(range(support_size), repeat=l):
            prob = class_prob
            value = 1.0
            for pos, (i, ri) in enumerate(zip(methods, combo)):
                prob *= rows[pos][ri]
                value *= support[ri] - means[pos]
            terms.append(prob * value)
    return math.fsum(terms)


def predicted_central_moment(rho: float, deltas) -> float:
    """Closed-form order-l moment for conditionally independent methods.

    rho(1-rho)(rho^(l-1) - (rho-1)^(l-1)) * prod(deltas), with l equal
    to the number of deltas supplied.
    """
    deltas = np.asarray(deltas, dtype=float)
    l = deltas.size
    if l < 2:
        raise InvalidInput("closed form defined for order >= 2")
    factor = rho * (1.0 - rho) * (rho ** (l - 1) - (rho - 1.0) ** (l - 1))
    return float(factor * np.prod(deltas))
