"""summa: unsupervised AUROC estimation and weighted rank aggregation.

Estimates the performance of binary classifiers from the covariance
structure of their rank predictions alone, infers the class prevalence
from the third-moment tensor, and builds the corresponding weighted
ensemble, with a seeded synthetic harness and a CLI around it all.
"""

from .decomposition import (
    Rank1Recovery,
    TensorRecovery,
    check_recoverability,
    recover_rank1_matrix,
    recover_rank1_tensor,
    resolve_sign,
)
from .ensemble import (
    EnsembleScores,
    evaluate_ensemble,
    summa_scores,
    woc_scores,
)
from .exceptions import (
    DegenerateLabels,
    InvalidInput,
    InvalidPrevalence,
    NoSignal,
    NotConverged,
    SummaError,
    TiesUnsupported,
    TooFewMethods,
    ZeroMatrix,
)
from .inference import (
    PerformanceReport,
    performance_estimates,
    prevalence_from_moments,
    weights_only_report,
)
from .moments import (
    ConditionalRankModel,
    covariance_matrix,
    exact_central_moment,
    predicted_central_moment,
    third_moment_offdiag,
)
from .pipeline import PipelineResult, run_pipeline
from .ranking import (
    LabelVector,
    RankMatrix,
    ScoreMatrix,
    auroc_from_delta,
    auroc_rectangle,
    delta,
    mann_whitney_u0,
    rank_transform,
)
from .simulation import (
    SimulatedDataset,
    SimulationConfig,
    separation_for_auroc,
    simulate_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalRankModel",
    "DegenerateLabels",
    "EnsembleScores",
    "InvalidInput",
    "InvalidPrevalence",
    "LabelVector",
    "NoSignal",
    "NotConverged",
    "PerformanceReport",
    "PipelineResult",
    "Rank1Recovery",
    "RankMatrix",
    "ScoreMatrix",
    "SimulatedDataset",
    "SimulationConfig",
    "SummaError",
    "TensorRecovery",
    "TiesUnsupported",
    "TooFewMethods",
    "ZeroMatrix",
    "auroc_from_delta",
    "auroc_rectangle",
    "check_recoverability",
    "covariance_matrix",
    "delta",
    "evaluate_ensemble",
    "exact_central_moment",
    "mann_whitney_u0",
    "performance_estimates",
    "predicted_central_moment",
    "prevalence_from_moments",
    "rank_transform",
    "recover_rank1_matrix",
    "recover_rank1_tensor",
    "resolve_sign",
    "run_pipeline",
    "separation_for_auroc",
    "simulate_ensemble",
    "summa_scores",
    "third_moment_offdiag",
    "weights_only_report",
    "woc_scores",
]
