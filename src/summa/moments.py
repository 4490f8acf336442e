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

Third moments are one dense symmetric M x M x M array.  Only its
distinct-index entries follow the factorization above; an entry with a
repeated index pairs a method with itself, so it is left at zero and
tensor recovery never reads it.  The array is built with one
matrix-matrix product per leading method i, over the methods after it,
about M^3 N / 3 multiply-adds in all; each product's upper triangle is
mirrored into the other positions, so the array is exactly symmetric.

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
    """Central third moments as a dense, symmetric M x M x M array.

    Entries with three distinct indices hold the central third moment
    of those methods; entries with a repeated index are zero.

    For each leading method i, the centred rows after it are scaled by
    row i into one reused buffer, and a single matrix product with those
    rows gives every (i, j, l) with i < j < l: about M^3 N / 3
    multiply-adds in all.  The product's strict upper triangle (j < l)
    is mirrored into the five other axis orders, so the array is exactly
    symmetric.
    """
    r = _as_rank_array(ranks)
    m, n = r.shape
    if m < 3:
        raise TooFewMethods(f"third moments need at least 3 methods, got {m}")
    centered = r - r.mean(axis=1, keepdims=True)
    t = np.zeros((m, m, m))
    buf = np.empty((m - 1, n))
    for i in range(m - 2):
        rest = centered[i + 1:]
        prod = np.multiply(rest, centered[i], out=buf[: m - i - 1])
        # keep entry (j, l), j < l, which is c_l . (c_i c_j) / n, and mirror it
        block = np.triu(prod @ rest.T / n, 1)
        block += block.T
        t[i, i + 1:, i + 1:] = block
        t[i + 1:, i, i + 1:] = block
        t[i + 1:, i + 1:, i] = block
    return t


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
