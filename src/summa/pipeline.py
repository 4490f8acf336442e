"""End-to-end unsupervised inference over a rank matrix.

Wires the stages together: centred ranks -> covariance -> rank-one
recovery -> third-moment tensor -> prevalence and per-method report ->
aggregate scores.  Shared by the command line and the experiment
sweeps.  The ranks are centred once, into the jackknife blocks of a
:class:`summa.moments.CentredRanks`, whose Gram matrix makes the
covariance and, with the blocks, the tensor stage's leave-out fits; the
blocks are dropped before the aggregation's own M x N temporary.
:func:`summa.inference.performance_estimates` chooses the prevalence.

The tensor stage is a closed form with a jackknife, so it cannot fail to
converge; it either measures lambda_t with a standard error, and so a
prevalence interval, or measures nothing: it finds no distinct-index
signal, or too few methods leave it no fit; the stage alone decides.
When it measures, its jackknifed lambda_e is the report's one scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Rank1Recovery,
    TensorRecovery,
    recover_rank1_matrix,
    recover_rank1_tensor,
)
from .ensemble import EnsembleScores, summa_scores, woc_scores
from .exceptions import NoSignal, TooFewMethods
from .inference import PerformanceReport, performance_estimates
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
            payload["tensor"] = {"lambda_t_se": tensor.lambda_t_se, "z": tensor.z,
                                 "rho_interval": list(self.report.rho_interval)}
        return payload


def run_pipeline(
    ranks: RankMatrix,
    *,
    prevalence: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PipelineResult:
    """Estimate method performances and aggregate scores from ranks alone.

    A supplied ``prevalence`` is the rho of the report, cross-checked by
    the tensor stage; without one the tensor stage measures rho.  When
    the tensor stage measures nothing (too few methods, or no
    distinct-index signal) the reason goes to
    :func:`performance_estimates`, which makes the one fallback.
    ``tol`` and ``max_iter`` govern the matrix stage.
    """
    centred = third_moment_offdiag(ranks)
    recovery = recover_rank1_matrix(covariance_matrix(centred), tol=tol, max_iter=max_iter)

    tensor = reason = None
    try:
        tensor = recover_rank1_tensor(centred, recovery.v)
    except TooFewMethods as err:
        reason = str(err)
    except NoSignal:
        reason = "tensor stage found no signal"
    # the centred ranks are as large as the ranks themselves
    del centred

    report = performance_estimates(
        recovery.v, recovery.lambda_, ranks.n_samples, ranks.method_ids,
        rho=prevalence, tensor=tensor, reason=reason,
    )
    return PipelineResult(
        report=report,
        summa=summa_scores(ranks, report.weights),
        woc=woc_scores(ranks),
        recovery=recovery,
        tensor=tensor,
    )
