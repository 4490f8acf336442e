"""Turn recovered spectral quantities into prevalence and AUROC estimates.

With lambda_e = rho(1-rho) ||delta||^2 from the covariance and
lambda_t = rho(1-rho)(2 rho - 1) ||delta||^3 from the third-moment
tensor (both measured along the majority-positive direction v), the
ratio beta = lambda_t^2 / lambda_e^3 = (1 - 2 rho)^2 / (rho(1-rho))
pins rho(1-rho) = 1/(beta+4), and the sign of lambda_t selects the
root: positive lambda_t means the positive class is the majority.

From there ||delta|| = sqrt(lambda_e / (rho(1-rho))), each method's
delta_i = v_i ||delta||, and auroc_i = delta_i / N + 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomposition import check_recoverability
from .exceptions import InvalidInput, InvalidPrevalence, NoSignal
from .ranking import _default_ids

# Below this beta the sign of lambda_t is noise-dominated (beta is
# quadratic in lambda_t), so rho is reported as exactly 1/2.
BETA_DEGENERATE = 1e-3

# rho(1-rho) disagreement between a measured beta and a user-supplied
# prevalence beyond this adds a note to the report.
RHO_CROSSCHECK_TOL = 0.05


def prevalence_from_moments(lambda_e: float, lambda_t: float) -> tuple[float, float]:
    """Infer (rho, beta) from the two spectral values.

    beta = lambda_t^2 / lambda_e^3 and rho = (1 + s sqrt(beta/(beta+4)))/2
    with s the sign of lambda_t.  When beta falls below
    ``BETA_DEGENERATE`` the sign carries no information and rho is
    reported as exactly 0.5.
    """
    if not np.isfinite(lambda_e) or lambda_e <= 0.0:
        raise NoSignal(f"covariance leading value must be positive, got {lambda_e}")
    beta = lambda_t**2 / lambda_e**3
    if beta < BETA_DEGENERATE:
        return 0.5, beta
    s = 1.0 if lambda_t > 0 else -1.0
    rho = 0.5 * (1.0 + s * np.sqrt(beta / (beta + 4.0)))
    return float(rho), float(beta)


def implied_beta(rho: float) -> float:
    """beta consistent with a known prevalence: (1-2 rho)^2 / (rho(1-rho))."""
    return (1.0 - 2.0 * rho) ** 2 / (rho * (1.0 - rho))


@dataclass(frozen=True, eq=False)
class PerformanceReport:
    """Per-method performance estimates plus the scalars they came from.

    ``aurocs`` holds raw (unclamped) values; clamping to [0, 1] happens
    only in :meth:`to_dict` so symmetry properties survive in memory.
    ``weights`` is the unit-norm method vector; ``rho`` is None on the
    weights-only path (no tensor and no supplied prevalence).
    """

    method_ids: tuple[str, ...]
    weights: np.ndarray
    n_samples: int
    lambda_e: float
    rho: float | None
    rho_assumed: bool
    rho_degenerate: bool
    beta: float | None
    lambda_t: float | None
    delta_norm: float | None
    deltas: np.ndarray | None
    aurocs: np.ndarray | None
    recoverability_flagged: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    notes: tuple[str, ...] = ()

    @property
    def n_methods(self) -> int:
        return self.weights.size

    def to_dict(self) -> dict:
        methods = []
        for i, mid in enumerate(self.method_ids):
            entry = {
                "method_id": mid,
                "weight": float(self.weights[i]),
                "recoverability_flag": bool(self.recoverability_flagged[i]),
            }
            if self.deltas is not None:
                raw = float(self.aurocs[i])
                entry["delta"] = float(self.deltas[i])
                entry["auroc"] = min(1.0, max(0.0, raw))
                entry["auroc_raw"] = raw
            methods.append(entry)
        return {
            "n_methods": self.n_methods,
            "n_samples": self.n_samples,
            "lambda_e": self.lambda_e,
            "lambda_t": self.lambda_t,
            "rho": self.rho,
            "rho_source": "assumed" if self.rho_assumed else (
                None if self.rho is None else "estimated"),
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
    *,
    rho: float | None = None,
    beta: float | None = None,
    rho_assumed: bool = True,
    rho_degenerate: bool = False,
    lambda_t: float | None = None,
    method_ids: tuple[str, ...] | None = None,
    notes: tuple[str, ...] = (),
) -> PerformanceReport:
    """Per-method delta and AUROC estimates from (v, lambda_e) and a
    prevalence rho.

    A rho in (0, 1) fixes the scale ||delta|| = sqrt(lambda_e / (rho(1-rho))).
    With ``rho=None`` the report carries the unit weight vector only:
    relative method quality (and the weighted ensemble) need only v,
    while absolute AUROC values need rho.  A measured ``beta`` is
    cross-checked against rho (disagreement beyond
    ``RHO_CROSSCHECK_TOL`` adds a note, never fails); without one the report
    carries the beta implied by rho.
    """
    v = _unit(v)
    if not np.isfinite(lambda_e) or lambda_e <= 0.0:
        raise NoSignal(f"covariance leading value must be positive, got {lambda_e}")
    if n_samples < 2:
        raise InvalidInput("need at least 2 samples")
    if method_ids is None:
        method_ids = _default_ids("m", v.size)
    if len(method_ids) != v.size:
        raise InvalidInput("method_ids must match the weight vector length")

    notes = tuple(notes)
    delta_norm = deltas = aurocs = None
    if rho is not None:
        if not 0.0 < rho < 1.0:
            raise InvalidPrevalence(f"prevalence must lie in (0, 1), got {rho}")
        if beta is None:
            beta = implied_beta(rho)
        elif abs(1.0 / (beta + 4.0) - rho * (1.0 - rho)) > RHO_CROSSCHECK_TOL:
            message = (
                "supplied prevalence and measured beta disagree: "
                f"rho(1-rho)={rho * (1 - rho):.4f} vs 1/(beta+4)={1 / (beta + 4):.4f}"
            )
            notes = notes + (message,)
        delta_norm = float(np.sqrt(lambda_e / (rho * (1.0 - rho))))
        deltas = v * delta_norm
        aurocs = deltas / n_samples + 0.5

    return PerformanceReport(
        method_ids=tuple(method_ids),
        weights=v,
        n_samples=int(n_samples),
        lambda_e=float(lambda_e),
        rho=float(rho) if rho is not None else None,
        rho_assumed=bool(rho_assumed and rho is not None),
        rho_degenerate=bool(rho_degenerate),
        beta=float(beta) if beta is not None else None,
        lambda_t=float(lambda_t) if lambda_t is not None else None,
        delta_norm=delta_norm,
        deltas=deltas,
        aurocs=aurocs,
        recoverability_flagged=check_recoverability(v),
        notes=notes,
    )
