"""End-to-end unsupervised inference over a rank matrix.

Wires the stages together: covariance -> rank-one recovery -> (optional)
third-moment tensor -> prevalence -> per-method report -> aggregate
scores.  Shared by the command line and the experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    Rank1Recovery,
    TensorRecovery,
    recover_rank1_matrix,
    recover_rank1_tensor,
)
from .ensemble import EnsembleScores, summa_scores, woc_scores
from .exceptions import NotConverged, TooFewMethods
from .inference import (
    BETA_DEGENERATE,
    PerformanceReport,
    performance_estimates,
    prevalence_from_moments,
    weights_only_report,
)
from .moments import covariance_matrix, third_moment_offdiag
from .ranking import RankMatrix

TENSOR_MIN_METHODS = 5


@dataclass(frozen=True, eq=False)
class PipelineResult:
    report: PerformanceReport
    summa: EnsembleScores
    woc: EnsembleScores
    recovery: Rank1Recovery
    tensor: TensorRecovery | None


def run_pipeline(
    ranks: RankMatrix,
    *,
    prevalence: float | None = None,
    use_tensor: bool = True,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> PipelineResult:
    """Estimate method performances and aggregate scores from ranks alone.

    The tensor stage runs when ``use_tensor`` is set and at least
    ``TENSOR_MIN_METHODS`` methods are present; a user-supplied
    ``prevalence`` overrides the tensor estimate of rho (the two are
    cross-checked when both exist).  With neither, the report carries
    the weight vector only.
    """
    m = ranks.n_methods
    if use_tensor and prevalence is None and m < TENSOR_MIN_METHODS:
        raise TooFewMethods(
            f"prevalence estimation from the tensor needs at least "
            f"{TENSOR_MIN_METHODS} methods, got {m}; supply a prevalence "
            "or disable the tensor stage"
        )

    recovery = recover_rank1_matrix(covariance_matrix(ranks), tol=tol, max_iter=max_iter)

    tensor = None
    tensor_note = ()
    if use_tensor and m >= TENSOR_MIN_METHODS:
        try:
            tensor = recover_rank1_tensor(
                third_moment_offdiag(ranks), recovery.v, tol=tol, max_iter=max_iter
            )
        except NotConverged:
            if prevalence is None:
                raise  # the tensor was the only route to rho
            # with a supplied prevalence the tensor is only a cross-check;
            # a non-converged estimate would only produce spurious warnings
            tensor_note = ("tensor stage did not converge; cross-check skipped",)

    if tensor is not None:
        rho_hat, beta = prevalence_from_moments(recovery.lambda_, tensor.lambda_t)
        report = performance_estimates(
            recovery.v, recovery.lambda_, ranks.n_samples,
            rho=rho_hat if prevalence is None else prevalence, beta=beta,
            rho_assumed=prevalence is not None,
            rho_degenerate=beta < BETA_DEGENERATE, lambda_t=tensor.lambda_t,
            method_ids=ranks.method_ids,
        )
    elif prevalence is not None:
        report = performance_estimates(
            recovery.v, recovery.lambda_, ranks.n_samples,
            rho=prevalence, rho_assumed=True, method_ids=ranks.method_ids,
            notes=tensor_note,
        )
    else:
        report = weights_only_report(
            recovery.v, recovery.lambda_, ranks.n_samples,
            method_ids=ranks.method_ids, notes=tensor_note,
        )

    return PipelineResult(
        report=report,
        summa=summa_scores(ranks, report.weights),
        woc=woc_scores(ranks),
        recovery=recovery,
        tensor=tensor,
    )
