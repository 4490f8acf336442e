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
)
from .inference import (
    PerformanceReport,
    performance_estimates,
    prevalence_from_moments,
)
from .moments import covariance_matrix, third_moment_offdiag
from .pipeline import PipelineResult, run_pipeline
from .ranking import (
    LabelVector,
    RankMatrix,
    ScoreMatrix,
    auroc_rectangle,
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
    "auroc_rectangle",
    "check_recoverability",
    "covariance_matrix",
    "evaluate_ensemble",
    "performance_estimates",
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
    "woc_scores",
]
