"""Turn recovered spectral quantities into prevalence and AUROC estimates.

With lambda_e = rho(1-rho) ||delta||^2 from the covariance and
lambda_t = rho(1-rho)(2 rho - 1) ||delta||^3 from the third-moment
tensor (both measured along the majority-positive direction v), the
ratio beta = lambda_t^2 / lambda_e^3 = (1 - 2 rho)^2 / (rho(1-rho))
pins rho(1-rho) = 1/(beta+4), and the sign of lambda_t selects the
root: positive lambda_t means the positive class is the majority.

From there ||delta|| = sqrt(lambda_e / (rho(1-rho))), each method's
delta_i = v_i ||delta||, and auroc_i = delta_i / N + 1/2.  Every report
has a rho, and so deltas and AUROCs: the measured one, a supplied one,
or the flagged 1/2 that :func:`summa.pipeline.run_pipeline` takes when
the tensor stage measured nothing.

The tensor stage also gives lambda_t a jackknife standard error.  Its
interval lambda_t -/+ ``Z_CUTOFF`` standard errors, mapped through the
same formula, is the prevalence interval; the estimate is degenerate
when that interval contains 1/2, i.e. when the data cannot tell which
class is the majority.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomposition import check_recoverability
from .exceptions import InvalidInput, InvalidPrevalence, NoSignal

# Half-width of the lambda_t interval, in jackknife standard errors.
Z_CUTOFF = 3.25


def prevalence_from_moments(lambda_e: float, lambda_t: float) -> tuple[float, float]:
    """Infer (rho, beta) from the two spectral values.

    beta = lambda_t^2 / lambda_e^3 and rho = (1 + s sqrt(beta/(beta+4)))/2
    with s the sign of lambda_t; rho is increasing in lambda_t.
    """
    if not np.isfinite(lambda_e) or lambda_e <= 0.0:
        raise NoSignal(f"covariance leading value must be positive, got {lambda_e}")
    beta = lambda_t**2 / lambda_e**3
    s = 1.0 if lambda_t > 0 else -1.0
    rho = 0.5 * (1.0 + s * np.sqrt(beta / (beta + 4.0)))
    return float(rho), float(beta)


def prevalence_interval(
    lambda_e: float, lambda_t: float, lambda_t_se: float
) -> tuple[float, float]:
    """The rho of lambda_t -/+ ``Z_CUTOFF`` standard errors."""
    return tuple(
        prevalence_from_moments(lambda_e, lambda_t + side * Z_CUTOFF * lambda_t_se)[0]
        for side in (-1.0, 1.0)
    )


def implied_beta(rho: float) -> float:
    """beta consistent with a known prevalence: (1-2 rho)^2 / (rho(1-rho))."""
    return (1.0 - 2.0 * rho) ** 2 / (rho * (1.0 - rho))


@dataclass(frozen=True, eq=False)
class PerformanceReport:
    """Per-method performance estimates plus the scalars they came from.

    ``aurocs`` holds raw (unclamped) values; clamping to [0, 1] happens
    only in :meth:`to_dict` so symmetry properties survive in memory.
    ``weights`` is the unit-norm method vector and ``rho`` the
    prevalence that scales it into deltas and AUROCs.
    ``rho_interval`` is the measured prevalence interval, if any, and
    ``rho_degenerate`` says whether it contains 1/2.
    """

    method_ids: tuple[str, ...]
    weights: np.ndarray
    n_samples: int
    lambda_e: float
    rho: float
    rho_assumed: bool
    rho_degenerate: bool
    rho_interval: tuple[float, float] | None
    beta: float
    lambda_t: float | None
    delta_norm: float
    deltas: np.ndarray
    aurocs: np.ndarray
    recoverability_flagged: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    notes: tuple[str, ...] = ()

    @property
    def n_methods(self) -> int:
        return self.weights.size

    def to_dict(self) -> dict:
        methods = []
        for i, mid in enumerate(self.method_ids):
            raw = float(self.aurocs[i])
            methods.append({
                "method_id": mid,
                "weight": float(self.weights[i]),
                "recoverability_flag": bool(self.recoverability_flagged[i]),
                "delta": float(self.deltas[i]),
                "auroc": min(1.0, max(0.0, raw)),
                "auroc_raw": raw,
            })
        return {
            "n_methods": self.n_methods,
            "n_samples": self.n_samples,
            "lambda_e": self.lambda_e,
            "lambda_t": self.lambda_t,
            "rho": self.rho,
            "rho_source": "assumed" if self.rho_assumed else "estimated",
            "rho_degenerate": self.rho_degenerate,
            "beta": self.beta,
            "delta_norm": self.delta_norm,
            "methods": methods,
            "notes": list(self.notes),
        }


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm) or abs(norm - 1.0) > 1e-6:
        raise InvalidInput("weight vector must be unit-norm")
    return v / norm


def performance_estimates(
    v,
    lambda_e: float,
    n_samples: int,
    method_ids: tuple[str, ...],
    *,
    rho: float,
    beta: float | None = None,
    rho_assumed: bool = True,
    rho_interval: tuple[float, float] | None = None,
    lambda_t: float | None = None,
    notes: tuple[str, ...] = (),
) -> PerformanceReport:
    """Per-method delta and AUROC estimates from (v, lambda_e) and a
    prevalence rho.

    The rho in (0, 1) fixes the scale ||delta|| = sqrt(lambda_e / (rho(1-rho))).
    Without a measured ``beta`` the report carries the beta implied by
    rho.  A measured ``rho_interval`` flags the estimate degenerate when
    it contains 1/2, and an assumed rho outside it adds a note (never
    fails).
    """
    v = _unit(v)
    if not np.isfinite(lambda_e) or lambda_e <= 0.0:
        raise NoSignal(f"covariance leading value must be positive, got {lambda_e}")
    if n_samples < 2:
        raise InvalidInput("need at least 2 samples")
    if len(method_ids) != v.size:
        raise InvalidInput("method_ids must match the weight vector length")
    if not 0.0 < rho < 1.0:
        raise InvalidPrevalence(f"prevalence must lie in (0, 1), got {rho}")

    notes = tuple(notes)
    degenerate = False
    if rho_interval is not None:
        low, high = rho_interval
        degenerate = low <= 0.5 <= high
        if rho_assumed and not low <= rho <= high:
            notes = notes + (
                f"supplied prevalence {rho:.4f} lies outside the measured interval "
                f"[{low:.4f}, {high:.4f}]",
            )
    if beta is None:
        beta = implied_beta(rho)
    delta_norm = float(np.sqrt(lambda_e / (rho * (1.0 - rho))))
    deltas = v * delta_norm

    return PerformanceReport(
        method_ids=tuple(method_ids),
        weights=v,
        n_samples=int(n_samples),
        lambda_e=float(lambda_e),
        rho=float(rho),
        rho_assumed=bool(rho_assumed),
        rho_degenerate=degenerate,
        rho_interval=rho_interval,
        beta=float(beta),
        lambda_t=float(lambda_t) if lambda_t is not None else None,
        delta_norm=delta_norm,
        deltas=deltas,
        aurocs=deltas / n_samples + 0.5,
        recoverability_flagged=check_recoverability(v),
        notes=notes,
    )
