"""Post-training low-rank compression with residual compensation.

Dense layers are replaced by rank-limited factor pairs chosen against
calibration activations: a whitened truncation takes most of the rank
budget and a second pass over the residual spends the rest. A planner
decides how many tail layers to compress so a model-wide parameter
target is met at the lowest final-layer error.
"""

from __future__ import annotations

from .calibration import (
    CalibrationSet,
    ScalingContext,
    capture_activations,
    whiten,
    whitening_contexts,
)
from .compensation import (
    WhitenedWeight,
    compress_matrix,
    direct_truncate_matrix,
    whitened_weight,
)
from .errors import (
    CompressionError,
    DimensionError,
    FormatError,
    InfeasibleBudgetError,
    InfeasiblePlanError,
    InvalidRankError,
    NumericalError,
    SingularWhiteningError,
)
from .linalg import (
    FactorPair,
    RankBudget,
    SvdFactors,
    frobenius_error,
    rank_budget,
    svd,
    truncate,
)
from .model import (
    ACTIVATIONS,
    Layer,
    MatrixEntry,
    SequentialModel,
    forward,
    layerwise_error,
    mac_count,
    parameter_count,
)
from .oracle import (
    MacCheckResult,
    OracleReport,
    check_delta_decomposition,
    check_mac_formula,
    check_theorem3,
    delta_suite,
    mac_suite,
    run_all,
)
from .planner import (
    CandidateResult,
    CompressionPlan,
    PlannerConfig,
    compress_model,
    compress_tail_layers,
    enumerate_candidates,
    plan,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "CalibrationSet",
    "CandidateResult",
    "CompressionError",
    "CompressionPlan",
    "DimensionError",
    "FactorPair",
    "FormatError",
    "InfeasibleBudgetError",
    "InfeasiblePlanError",
    "InvalidRankError",
    "Layer",
    "MacCheckResult",
    "MatrixEntry",
    "NumericalError",
    "OracleReport",
    "PlannerConfig",
    "RankBudget",
    "ScalingContext",
    "SequentialModel",
    "SingularWhiteningError",
    "SvdFactors",
    "WhitenedWeight",
    "capture_activations",
    "check_delta_decomposition",
    "check_mac_formula",
    "check_theorem3",
    "compress_matrix",
    "compress_model",
    "compress_tail_layers",
    "delta_suite",
    "direct_truncate_matrix",
    "enumerate_candidates",
    "forward",
    "frobenius_error",
    "layerwise_error",
    "mac_count",
    "mac_suite",
    "parameter_count",
    "plan",
    "rank_budget",
    "run_all",
    "svd",
    "truncate",
    "whiten",
    "whitened_weight",
    "whitening_contexts",
    "__version__",
]
