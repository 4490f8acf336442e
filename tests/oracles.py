"""Exact references the tests check summa against.

The three supervised routes to AUROC (the difference of class-conditional
mean ranks delta = <r|0> - <r|1>, the rectangle rule and the Mann-Whitney
U) compute in exact rationals when given Python ints, so the tests can
compare them with ``==``.  :class:`ConditionalRankModel` with
:func:`exact_central_moment` enumerates the central moments of a small
factorized rank model, independently of the closed form in
:func:`predicted_central_moment`, so the two can be checked against each
other.
:func:`rank1_completion` is the alternating map with exact eigen-solves:
an independent route to the fixed points of the matrix stage's update.

They live only in ``tests/`` because the method never calls them: summa
estimates performance from ranks alone, and its one supervised measure,
:func:`summa.ranking.auroc_rectangle`, counts in integers and returns a
float.  Kept here, they add nothing to the package's public API, and
``import summa`` does not load ``fractions``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from summa.exceptions import InvalidInput
from summa.ranking import LabelVector

# Enumeration cost cap for the exact oracle.
MAX_ORACLE_SUPPORT = 12


def delta(ranks, labels) -> float | Fraction:
    """Difference of class-conditional mean ranks, <r|0> - <r|1>.

    Positive when the method tends to rank positive samples first.
    ndarray ranks return a float; a sequence of ints returns the exact
    rational value.
    """
    labels = LabelVector.coerce(labels)
    labels.require_both_classes()
    if isinstance(ranks, np.ndarray):
        r = np.asarray(ranks, dtype=float)
        mask = labels.labels == 0
        return float(r[mask].mean() - r[~mask].mean())
    s0 = sum(r for r, lab in zip(ranks, labels.labels) if lab == 0)
    s1 = sum(r for r, lab in zip(ranks, labels.labels) if lab == 1)
    return Fraction(s0, labels.n_negative) - Fraction(s1, labels.n_positive)


def auroc_from_delta(delta_value, n_samples: int):
    """AUROC implied by a conditional mean-rank difference: delta/N + 1/2."""
    return delta_value / n_samples + Fraction(1, 2)


def _labels_by_rank(ranks, labels: LabelVector) -> list[int]:
    """Class label of the sample at each rank position 1..N; ``ranks``
    must be a permutation."""
    by_rank = [0] * len(labels)
    for sample, rank in enumerate(ranks):
        by_rank[rank - 1] = int(labels.labels[sample])
    return by_rank


def exact_auroc_rectangle(ranks, labels) -> Fraction:
    """Rectangle-rule AUROC, sum of TPR * (FPR step) walking the integer
    ranks 1..N, as an exact rational."""
    labels = LabelVector.coerce(labels)
    true_pos = 0
    concordant = 0
    for lab in _labels_by_rank(ranks, labels):
        if lab == 1:
            true_pos += 1
        else:
            concordant += true_pos
    return Fraction(concordant, labels.n_positive * labels.n_negative)


def mann_whitney_u0(ranks, labels):
    """Mann-Whitney U statistic of the negative class.

    U0 = sum of class-0 ranks - N0(N0+1)/2, which satisfies
    U0 = (N1 N0 / N)(delta + N/2) and auroc = U0 / (N0 N1).
    Integer ranks give an exact integer result.
    """
    labels = LabelVector.coerce(labels)
    n0 = labels.n_negative
    s0 = sum(r for r, lab in zip(ranks, labels.labels) if lab == 0)
    return s0 - (n0 * (n0 + 1)) // 2


@dataclass(frozen=True, eq=False)
class ConditionalRankModel:
    """Factorized rank model: per-method rank distributions given the class.

    ``p0[i, r-1]`` / ``p1[i, r-1]`` give method i's probability of
    assigning rank r to a negative / positive sample: M x S float
    arrays whose rows sum to 1.  ``rho`` in (0, 1) is the positive-class
    prevalence.  Methods draw independently given the class, so joint
    moments factorize.
    """

    p0: np.ndarray
    p1: np.ndarray
    rho: float

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
        m = self.n_methods
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
    passing ``order`` explicitly just asserts that count.  The support
    is capped to keep enumeration tractable.
    """
    methods = tuple(subset)
    l = len(methods)
    if order is not None and order != l:
        raise InvalidInput(f"order {order} does not match {l} selected methods")
    if len(set(methods)) != l:
        raise InvalidInput("method subset must be distinct")
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
    factor = rho * (1.0 - rho) * (rho ** (l - 1) - (rho - 1.0) ** (l - 1))
    return float(factor * np.prod(deltas))


def rank1_completion(q, tol: float, max_iter: int):
    """The alternating map with exact ``np.linalg.eigh`` eigen-solves: an
    independent route to the fixed points of the update that
    :func:`summa.decomposition.recover_rank1_matrix` takes.

    Each step completes the hollow of ``q`` with diag(lambda u o u) and
    takes the completion's most positive eigenpair; it stops when
    successive values agree to ``tol`` (relative).  Returns
    ``(outcome, iterations, lambda, u)``: the outcome is "converged",
    "NotConverged" after ``max_iter`` steps, or "NoSignal" when a value
    is not positive or, at ``max_iter``, the iterate assigns a method
    more than its total variance (then ``lambda`` and ``u`` are the last
    iterate's).  The sign of ``u`` is LAPACK's.
    """
    q = np.asarray(q, dtype=float)
    hollow = q - np.diag(np.diag(q))
    d = np.zeros(q.shape[0])
    lam_prev = None
    for iterations in range(1, max_iter + 1):
        values, vectors = np.linalg.eigh(hollow + np.diag(d))
        lam, u = float(values[-1]), vectors[:, -1]
        if lam <= 0.0:
            return "NoSignal", iterations, lam, u
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return "converged", iterations, lam, u
        lam_prev = lam
        d = lam * u * u
    cap = 1.05 * np.maximum(np.diag(q), 0.0) + 1e-9 * max(1.0, float(np.abs(q).max()))
    if np.any(lam * u * u > cap):
        return "NoSignal", max_iter, lam, u
    return "NotConverged", max_iter, lam, u
