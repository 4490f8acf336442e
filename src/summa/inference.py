"""Turn recovered spectral quantities into prevalence and AUROC estimates.

With lambda_e = rho(1-rho) ||delta||^2 from the covariance and
lambda_t = rho(1-rho)(2 rho - 1) ||delta||^3 from the third-moment
tensor (both measured along the majority-positive direction v), the
ratio beta = lambda_t^2 / lambda_e^3 = (1 - 2 rho)^2 / (rho(1-rho))
pins rho(1-rho) = 1/(beta+4), and the sign of lambda_t selects the
root: positive lambda_t means the positive class is the majority.

From there ||delta|| = sqrt(lambda_e / (rho(1-rho))), each method's
delta_i = v_i ||delta||, and auroc_i = delta_i / N + 1/2.  Whenever the
tensor stage measured, its jackknifed lambda_e gives rho and ||delta||
alike.  Every report has a rho, and so deltas and AUROCs: the measured
one, a supplied one, or the flagged 1/2 taken when the tensor stage
measured nothing.  :func:`performance_estimates` makes this choice.

The tensor stage also gives lambda_t a jackknife standard error.  Its
interval lambda_t -/+ ``Z_CUTOFF`` standard errors, mapped through the
same formula, is the prevalence interval; the estimate is degenerate
when that interval contains 1/2, i.e. when the data cannot tell which
class is the majority.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomposition import TensorRecovery, check_recoverability, check_unit
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


def performance_estimates(
    v,
    lambda_e: float,
    n_samples: int,
    method_ids: tuple[str, ...],
    *,
    rho: float | None = None,
    tensor: TensorRecovery | None = None,
    reason: str | None = None,
) -> PerformanceReport:
    """Per-method delta and AUROC estimates from (v, lambda_e); the one
    place that chooses the prevalence rho and the covariance scale.

    A supplied ``rho`` in (0, 1) wins; otherwise the tensor stage's fit
    ``tensor`` gives it.  Whenever ``tensor`` is passed it also gives the
    measured beta, lambda_t and :func:`prevalence_interval`, which flags
    the estimate degenerate when it contains 1/2; a supplied rho outside
    it adds a note (never fails); its jackknifed lambda_e is the scale,
    and the ``lambda_e`` argument is neither read nor checked.  Without
    a tensor that argument must be positive.  With neither a rho nor a
    tensor, rho is 1/2 with the whole of (0, 1) as its interval, so it
    is flagged degenerate.  ``reason`` says why the tensor stage
    measured nothing; without a tensor it becomes the one note.
    ``v`` must be a unit vector to 1e-6; it is used as given, and is
    the report's ``weights``.  ||delta|| = sqrt(lambda_e / (rho(1-rho))).
    """
    v = check_unit(v, "v")
    if n_samples < 2:
        raise InvalidInput("need at least 2 samples")
    if len(method_ids) != v.size:
        raise InvalidInput("method_ids must match the weight vector length")
    rho_assumed = rho is not None
    if rho_assumed and not 0.0 < rho < 1.0:
        raise InvalidPrevalence(f"prevalence must lie in (0, 1), got {rho}")

    notes = ()
    if tensor is not None:
        lambda_e = tensor.lambda_e
        estimated, beta = prevalence_from_moments(lambda_e, tensor.lambda_t)
        interval = prevalence_interval(lambda_e, tensor.lambda_t, tensor.lambda_t_se)
        low, high = interval
        if not rho_assumed:
            rho = estimated
        elif not low <= rho <= high:
            notes = (
                f"supplied prevalence {rho:.4f} lies outside the measured interval "
                f"[{low:.4f}, {high:.4f}]",
            )
    else:
        if not np.isfinite(lambda_e) or lambda_e <= 0.0:
            raise NoSignal(f"covariance leading value must be positive, got {lambda_e}")
        interval, outcome = None, "cross-check skipped"
        if not rho_assumed:
            # the tensor was the only route to rho, and it rules no prevalence out
            rho, interval = 0.5, (0.0, 1.0)
            outcome = "rho taken as 1/2 and flagged degenerate"
        beta = implied_beta(rho)
        if reason is not None:
            notes = (f"{reason}; {outcome}",)
    delta_norm = float(np.sqrt(lambda_e / (rho * (1.0 - rho))))
    deltas = v * delta_norm

    return PerformanceReport(
        method_ids=tuple(method_ids),
        weights=v,
        n_samples=int(n_samples),
        lambda_e=float(lambda_e),
        rho=float(rho),
        rho_assumed=rho_assumed,
        rho_degenerate=interval is not None and interval[0] <= 0.5 <= interval[1],
        rho_interval=interval,
        beta=float(beta),
        lambda_t=None if tensor is None else tensor.lambda_t,
        delta_norm=delta_norm,
        deltas=deltas,
        aurocs=deltas / n_samples + 0.5,
        recoverability_flagged=check_recoverability(v),
        notes=notes,
    )
