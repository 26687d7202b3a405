"""Post-training low-rank compression with residual compensation.

Dense layers are replaced by rank-limited factor pairs chosen against
calibration activations: a whitened truncation takes most of the rank
budget and a second pass over the residual spends the rest. A planner
decides how many tail layers to compress so a model-wide parameter
target is met at the lowest final-layer error.

The exported names resolve lazily (PEP 562): ``import resvd`` loads no
submodule, and each name imports its module on first use, so a command
loads only the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "calibration": ("CalibrationSet", "capture_activations", "whiten"),
    "compensation": ("WhitenedWeight", "compress_matrix", "direct_truncate_matrix",
                     "whitened_weight"),
    "errors": ("CompressionError", "DimensionError", "FormatError", "InfeasibleBudgetError",
               "InfeasiblePlanError", "InvalidRankError", "NumericalError",
               "SingularWhiteningError"),
    "linalg": ("FactorPair", "RankBudget", "SvdFactors", "frobenius_error", "rank_budget",
               "svd", "truncate"),
    "model": ("ACTIVATIONS", "Layer", "MatrixEntry", "SequentialModel", "forward",
              "layerwise_error", "mac_count", "parameter_count"),
    "oracle": ("MacCheckResult", "OracleReport", "check_delta_decomposition",
               "check_mac_formula", "check_theorem3", "delta_suite", "mac_suite", "run_all"),
    "planner": ("CandidateResult", "CompressionPlan", "PlannerConfig", "compress_model",
                "compress_tail_layers", "enumerate_candidates", "plan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
