"""End-to-end unsupervised inference over a rank matrix.

Wires the stages together: covariance -> rank-one recovery -> (optional)
third-moment tensor -> prevalence -> per-method report -> aggregate
scores.  Shared by the command line and the experiment sweeps, and the
one place that chooses the prevalence rho.
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
from .exceptions import NoSignal, NotConverged, TooFewMethods
from .inference import PerformanceReport, performance_estimates, prevalence_from_moments
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

    The only place that chooses rho: a supplied ``prevalence`` wins (a
    converged tensor cross-checks it); else a converged tensor gives rho
    through :func:`prevalence_from_moments`; else, if the tensor stage
    raised :class:`NotConverged` or :class:`NoSignal`, rho is 1/2 with
    ``rho_degenerate`` set and a note.  The tensor stage runs when
    ``use_tensor`` is set and at least ``TENSOR_MIN_METHODS`` methods are
    present; with it off and no prevalence the report carries the weight
    vector only.
    """
    m = ranks.n_methods
    if use_tensor and prevalence is None and m < TENSOR_MIN_METHODS:
        raise TooFewMethods(
            f"prevalence estimation from the tensor needs at least "
            f"{TENSOR_MIN_METHODS} methods, got {m}; supply a prevalence "
            "or disable the tensor stage"
        )

    recovery = recover_rank1_matrix(covariance_matrix(ranks), tol=tol, max_iter=max_iter)

    tensor = failure = None
    if use_tensor and m >= TENSOR_MIN_METHODS:
        try:
            tensor = recover_rank1_tensor(
                third_moment_offdiag(ranks), recovery.v, tol=tol, max_iter=max_iter
            )
        except NotConverged:
            failure = "did not converge"
        except NoSignal:
            failure = "found no signal"

    rho, beta, lambda_t, degenerate, notes = prevalence, None, None, False, ()
    if tensor is not None:
        rho_hat, beta = prevalence_from_moments(recovery.lambda_, tensor.lambda_t)
        lambda_t = tensor.lambda_t
        # exactly 1/2 comes back only from the degenerate band
        degenerate = rho_hat == 0.5
        if rho is None:
            rho = rho_hat
    elif failure is not None and rho is not None:
        # the tensor was only a cross-check; a failed one would only
        # produce spurious notes
        notes = (f"tensor stage {failure}; cross-check skipped",)
    elif failure is not None:
        # the tensor was the only route to rho: report 1/2, flagged
        rho, degenerate = 0.5, True
        notes = (f"tensor stage {failure}; rho taken as 1/2 and flagged degenerate",)

    report = performance_estimates(
        recovery.v, recovery.lambda_, ranks.n_samples,
        rho=rho, beta=beta, rho_assumed=prevalence is not None,
        rho_degenerate=degenerate, lambda_t=lambda_t,
        method_ids=ranks.method_ids, notes=notes,
    )
    return PipelineResult(
        report=report,
        summa=summa_scores(ranks, report.weights),
        woc=woc_scores(ranks),
        recovery=recovery,
        tensor=tensor,
    )
