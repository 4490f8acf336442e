"""Seeded synthetic ensembles of conditionally independent scorers.

Each simulated method draws Gaussian scores with unit variance: negative
samples from N(0, 1) and positive samples from N(d_i, 1), where the
separation d_i = sqrt(2) * PhiInv(auroc_i) makes the method's population
AUROC exactly the requested target.  PhiInv is the standard library's
``statistics.NormalDist().inv_cdf``, so the module needs numpy alone.
Methods sample independently given the labels, so conditional
independence holds by construction.

Randomness comes from counter-based Philox streams (numpy's
``Philox4x64``) keyed as (seed, stream): stream ``i`` feeds method i's
scores and the reserved stream 2**64-1 draws the per-method target
AUROCs.  Because streams never share state, adding methods never
perturbs the draws of existing ones, and a given (seed, config) pair
reproduces bit-identical data.  One Philox per call serves every
stream: it is re-keyed to (seed, stream) at counter 0, the state a fresh
``Philox(key=(seed, stream))`` starts from, which skips the entropy a
fresh one draws for a seed sequence it never uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput
from .ranking import LabelVector, ScoreMatrix

# Philox stream reserved for config-level draws (target AUROCs).
_META_STREAM = 2**64 - 1


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble simulation parameters."""

    n_methods: int = 30
    n_samples: int = 1000
    rho: float = 0.5
    auroc_low: float = 0.4
    auroc_high: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_methods < 1:
            raise InvalidInput("need at least one method")
        if self.n_samples < 2:
            raise InvalidInput("need at least two samples")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInput(f"prevalence must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.auroc_low <= self.auroc_high < 1.0:
            raise InvalidInput(
                f"need 0 < auroc_low <= auroc_high < 1, got "
                f"({self.auroc_low}, {self.auroc_high})"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidInput("seed must be an unsigned 64-bit integer")
        n1 = round(self.rho * self.n_samples)
        if not 1 <= n1 <= self.n_samples - 1:
            raise InvalidInput(
                "prevalence and sample count leave one class empty "
                f"(round(rho * N) = {n1} of {self.n_samples})"
            )


@dataclass(frozen=True, eq=False)
class SimulatedDataset:
    """Scores, labels and the target AUROCs each method was built to hit."""

    scores: ScoreMatrix
    labels: LabelVector
    true_aurocs: np.ndarray


def separation_for_auroc(target_auroc: float) -> float:
    """Gaussian mean separation giving the target AUROC.

    For unit-variance classes separated by d, the probability that a
    positive sample outscores a negative one is Phi(d / sqrt(2)), so
    d = sqrt(2) * PhiInv(target).  PhiInv is the standard library's
    ``NormalDist().inv_cdf`` (Wichura's AS241 rational approximation,
    good to about 1e-16 relative); the result is exactly 0.0 at 1/2.
    """
    # imported here: statistics loads fractions and decimal, which infer
    # and evaluate never need
    from statistics import NormalDist

    if not 0.0 < target_auroc < 1.0:
        raise InvalidInput(f"AUROC target must lie in (0, 1), got {target_auroc}")
    return math.sqrt(2.0) * NormalDist().inv_cdf(target_auroc)


def _streams(seed: int):
    """A function that sets one generator to the start of Philox stream
    (seed, stream) and returns it."""
    philox = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # a fresh Philox's state: counter and buffer 0, buffer used up
    start = philox.state
    generator = np.random.Generator(philox)

    def stream(index: int) -> np.random.Generator:
        start["state"]["key"] = np.array([seed, index], dtype=np.uint64)
        philox.state = start
        return generator

    return stream


def simulate_ensemble(config: SimulationConfig) -> SimulatedDataset:
    """Draw a seeded, conditionally independent synthetic ensemble.

    The first round(rho * N) samples are the positive class, so the
    empirical prevalence matches the configured one exactly.  Target
    AUROCs are i.i.d. uniform on [auroc_low, auroc_high].
    """
    m, n = config.n_methods, config.n_samples
    n1 = round(config.rho * n)
    labels = np.concatenate([np.ones(n1, np.int8), np.zeros(n - n1, np.int8)])
    labels.setflags(write=False)
    labels = LabelVector(labels)

    stream = _streams(config.seed)
    true_aurocs = stream(_META_STREAM).uniform(config.auroc_low, config.auroc_high, size=m)
    separations = np.array([separation_for_auroc(a) for a in true_aurocs.tolist()])

    values = np.empty((m, n))
    shift = labels.labels.astype(float)
    for i in range(m):
        row = stream(i).standard_normal(out=values[i])
        row += separations[i] * shift
    values.setflags(write=False)

    scores = ScoreMatrix.from_array(values)
    true_aurocs.setflags(write=False)
    return SimulatedDataset(scores, labels, true_aurocs)
