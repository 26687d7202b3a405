"""Two-stage whitened truncation with residual compensation.

The rank budget ``r = r_i + r_r`` is split between a whitened truncation of
the weight itself and a plain truncation of the leftover residual:

1. factor ``W S`` at rank ``r_i`` and fold ``S^{-1}`` into the right factor,
   giving the intermediate approximation ``W_ri``;
2. factor the residual ``W - W_ri`` at rank ``r_r`` in unwhitened space;
3. concatenate both factor pairs (stage-1 columns first).

The combined product is never worse than truncating ``W S`` at rank ``r``
directly, because the discarded whitened tail is itself a rank-``r_r``
competitor to the optimal residual truncation.
"""

from __future__ import annotations

import numpy as np

from .calibration import ScalingContext
from .errors import DimensionError
from .linalg import FactorPair, SvdFactors, as_matrix, rank_budget, svd, truncate


def whitened_svd(w: np.ndarray, ctx: ScalingContext, name: str = "matrix") -> SvdFactors:
    """Sign-fixed ``svd(W S)``; no rank enters it, so every budget can truncate one result."""
    return svd(w @ ctx.s, name=f"{name} (whitened)")


def _weight(w, ctx: ScalingContext, name: str) -> np.ndarray:
    """``w`` as a float64 matrix, checked to be as wide as ``ctx`` whitens."""
    arr = as_matrix(w, name)
    if ctx.s.shape[0] != arr.shape[1]:
        raise DimensionError(
            f"{name}: scaling context is {ctx.s.shape[0]}x{ctx.s.shape[0]} "
            f"but the weight expects width {arr.shape[1]}"
        )
    return arr


def _whitened_stage(whitened: SvdFactors, ctx: ScalingContext, r: int) -> FactorPair:
    # Truncate WS, then absorb S^{-1} into the right factor so that
    # u_hat @ v_hat == SVD_r(WS) S^{-1} exactly.
    pair = truncate(whitened, r)
    return FactorPair(u_hat=pair.u_hat, v_hat=pair.v_hat @ ctx.s_inv, rank=r)


def compress_matrix(w, ctx: ScalingContext, layer_ratio: float, beta: float,
                    name: str = "matrix", whitened: SvdFactors | None = None) -> FactorPair:
    """Residual-compensated low-rank factorization of one weight matrix.

    ``layer_ratio`` is the share of the matrix's parameters to remove and
    ``beta`` the residual share of the rank budget; :func:`rank_budget`
    checks both ranges. ``whitened``, when given, must be
    ``whitened_svd(w, ctx)``; it spares that decomposition. With
    ``beta == 0`` the result is bit-identical to
    :func:`direct_truncate_matrix` at the same budget.
    """
    arr = _weight(w, ctx, name)
    budget = rank_budget(*arr.shape, layer_ratio, beta)
    if whitened is None:
        whitened = whitened_svd(arr, ctx, name)
    stage1 = _whitened_stage(whitened, ctx, budget.r_i)
    if budget.r_r == 0:
        return stage1
    residual = arr - stage1.u_hat @ stage1.v_hat
    stage2 = truncate(svd(residual, name=f"{name} (residual)"), budget.r_r)
    return FactorPair(
        u_hat=np.hstack([stage1.u_hat, stage2.u_hat]),
        v_hat=np.vstack([stage1.v_hat, stage2.v_hat]),
        rank=budget.r,
    )


def direct_truncate_matrix(w, ctx: ScalingContext, r: int, name: str = "matrix") -> FactorPair:
    """Single-stage whitened truncation at rank ``r`` (the comparison baseline)."""
    arr = _weight(w, ctx, name)
    return _whitened_stage(whitened_svd(arr, ctx, name), ctx, r)
