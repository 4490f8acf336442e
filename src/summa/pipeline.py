"""End-to-end unsupervised inference over a rank matrix.

Wires the stages together: covariance -> rank-one recovery ->
third-moment tensor -> prevalence -> per-method report -> aggregate
scores.  Shared by the command line and the experiment sweeps, and the
one place that chooses the prevalence rho.

The tensor stage is a closed form with a jackknife, so it cannot fail to
converge; it either measures lambda_t with a standard error, and so a
prevalence interval, or measures nothing: it finds no distinct-index
signal, or fewer than ``TENSOR_MIN_METHODS`` methods leave it no fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    TENSOR_MIN_METHODS,
    Rank1Recovery,
    TensorRecovery,
    recover_rank1_matrix,
    recover_rank1_tensor,
)
from .ensemble import EnsembleScores, summa_scores, woc_scores
from .exceptions import NoSignal
from .inference import (
    PerformanceReport,
    performance_estimates,
    prevalence_from_moments,
    prevalence_interval,
)
from .moments import covariance_matrix, third_moment_offdiag
from .ranking import RankMatrix


@dataclass(frozen=True, eq=False)
class PipelineResult:
    report: PerformanceReport
    summa: EnsembleScores
    woc: EnsembleScores
    recovery: Rank1Recovery
    tensor: TensorRecovery | None

    def to_dict(self) -> dict:
        """The report's dict plus what each recovery that ran measured."""
        payload = self.report.to_dict()
        recovery = self.recovery
        payload["recovery"] = {"iterations": recovery.iterations,
                               "converged": recovery.converged, "residual": recovery.residual}
        tensor = self.tensor
        if tensor is not None:
            payload["tensor"] = {"lambda_e": tensor.lambda_e, "lambda_t_se": tensor.lambda_t_se,
                                 "z": tensor.z, "rho_interval": list(self.report.rho_interval)}
        return payload


def run_pipeline(
    ranks: RankMatrix,
    *,
    prevalence: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PipelineResult:
    """Estimate method performances and aggregate scores from ranks alone.

    The only place that chooses rho: a supplied ``prevalence`` wins (a
    measured interval cross-checks it); else the tensor stage gives rho
    through :func:`prevalence_from_moments` and its interval through
    :func:`prevalence_interval`; else, if the tensor stage measured
    nothing (no distinct-index signal, or fewer than
    ``TENSOR_MIN_METHODS`` methods), rho is 1/2 with the whole of (0, 1)
    as its interval, so it is flagged degenerate, with a note naming the
    reason.  ``tol`` and ``max_iter`` govern the matrix stage.
    """
    recovery = recover_rank1_matrix(covariance_matrix(ranks), tol=tol, max_iter=max_iter)

    tensor = None
    if ranks.n_methods < TENSOR_MIN_METHODS:
        reason = f"fewer than {TENSOR_MIN_METHODS} methods for the tensor stage"
    else:
        try:
            tensor = recover_rank1_tensor(third_moment_offdiag(ranks), recovery.v)
        except NoSignal:
            reason = "tensor stage found no signal"

    rho, beta, lambda_t, interval, notes = prevalence, None, None, None, ()
    if tensor is not None:
        estimated, beta = prevalence_from_moments(tensor.lambda_e, tensor.lambda_t)
        interval = prevalence_interval(tensor.lambda_e, tensor.lambda_t, tensor.lambda_t_se)
        lambda_t = tensor.lambda_t
        if prevalence is None:
            rho = estimated
    elif prevalence is not None:
        # the tensor was only a cross-check
        notes = (f"{reason}; cross-check skipped",)
    else:
        # the tensor was the only route to rho, and it rules no prevalence out
        rho, interval = 0.5, (0.0, 1.0)
        notes = (f"{reason}; rho taken as 1/2 and flagged degenerate",)

    report = performance_estimates(
        recovery.v, recovery.lambda_, ranks.n_samples, ranks.method_ids,
        rho=rho, beta=beta, rho_assumed=prevalence is not None,
        rho_interval=interval, lambda_t=lambda_t, notes=notes,
    )
    return PipelineResult(
        report=report,
        summa=summa_scores(ranks, report.weights),
        woc=woc_scores(ranks),
        recovery=recovery,
        tensor=tensor,
    )
