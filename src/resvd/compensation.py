"""Two-stage whitened truncation with residual compensation.

The rank budget ``r = r_i + r_r`` is split between a whitened truncation of
the weight itself and a plain truncation of the leftover residual:

1. factor ``W S`` at rank ``r_i`` and fold ``S^{-1}`` into the right factor,
   giving the intermediate approximation ``W_ri``;
2. factor the residual ``W - W_ri`` at rank ``r_r`` in unwhitened space, in
   the tail coordinates of ``W S = U diag(sigma) V^T``: the residual is
   exactly ``U[:, r_i:] M`` with ``M = diag(sigma[r_i:]) V^T[r_i:] S^{-1}``,
   and ``U``'s columns are orthonormal, so its top ``r_r`` triplets are those
   of ``M`` with the left vectors lifted by ``U[:, r_i:]``. They come from the
   top ``r_r`` eigenvectors ``A`` of the small Gram matrix ``M M^T`` and one
   Rayleigh-Ritz step, the SVD of the ``r_r x n`` matrix ``A^T M``; the
   m x n residual is never formed;
3. concatenate both factor pairs (stage-1 columns first).

The combined product is never worse than truncating ``W S`` at rank ``r``
directly, because the discarded whitened tail is itself a rank-``r_r``
competitor to the optimal residual truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ScalingContext
from .errors import DimensionError, NumericalError
from .linalg import FactorPair, SvdFactors, as_matrix, rank_budget, sign_fixed, svd, truncate


@dataclass(frozen=True, eq=False)
class WhitenedWeight:
    """``w``, its whitener's inverse and the sign-fixed ``svd(w @ S)``: see :func:`whitened_weight`.

    No rank enters it, so every rank budget truncates the same factors.
    """

    w: np.ndarray
    s_inv: np.ndarray
    factors: SvdFactors


def whitened_weight(w, ctx: ScalingContext, name: str = "matrix") -> WhitenedWeight:
    """``w`` as a float64 matrix checked to be as wide as ``ctx`` whitens, with ``svd(W S)``."""
    arr = as_matrix(w, name)
    if ctx.s.shape[0] != arr.shape[1]:
        raise DimensionError(
            f"{name}: scaling context is {ctx.s.shape[0]}x{ctx.s.shape[0]} "
            f"but the weight expects width {arr.shape[1]}"
        )
    return WhitenedWeight(arr, ctx.s_inv, svd(arr @ ctx.s, name=f"{name} (whitened)"))


def compress_matrix(weight: WhitenedWeight, layer_ratio: float, beta: float,
                    name: str = "matrix") -> FactorPair:
    """Residual-compensated low-rank factorization of one weight matrix.

    ``layer_ratio`` is the share of the matrix's parameters to remove and
    ``beta`` the residual share of the rank budget; :func:`rank_budget`
    checks both ranges. With ``beta == 0`` the result is bit-identical to
    :func:`direct_truncate_matrix` at the same budget.
    """
    budget = rank_budget(*weight.w.shape, layer_ratio, beta)
    stage1 = direct_truncate_matrix(weight, budget.r_i)
    if budget.r_r == 0:
        return stage1
    stage2 = truncate(_residual_factors(weight, budget.r_i, budget.r_r, name), budget.r_r)
    return FactorPair(
        u_hat=np.hstack([stage1.u_hat, stage2.u_hat]),
        v_hat=np.vstack([stage1.v_hat, stage2.v_hat]),
    )


def direct_truncate_matrix(weight: WhitenedWeight, r: int) -> FactorPair:
    """Whitened truncation ``SVD_r(W S) S^{-1}``: the comparison baseline, and stage 1.

    ``S^{-1}`` is folded into the right factor, so the product is exact.
    """
    pair = truncate(weight.factors, r)
    return FactorPair(u_hat=pair.u_hat, v_hat=pair.v_hat @ weight.s_inv)


def _residual_factors(weight: WhitenedWeight, r_i: int, r_r: int, name: str) -> SvdFactors:
    """Top ``r_r`` singular triplets of ``W - W_ri``, in the tail coordinates of ``svd(W S)``.

    ``M`` is divided by ``sigma[r_i]`` (1 when that is 0) so its Gram matrix
    cannot overflow; the singular values are scaled back at the end.
    """
    f = weight.factors
    tail = f.sigma[r_i:]
    scale = tail[0] if tail[0] > 0.0 else 1.0
    m = (tail / scale)[:, np.newaxis] * (f.vt[r_i:] @ weight.s_inv)
    try:
        _, vecs = np.linalg.eigh(m @ m.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed to converge on {name} (residual)") from exc
    top = vecs[:, : -r_r - 1 : -1]  # eigh sorts ascending; largest first
    ritz = svd(top.T @ m, name=f"{name} (residual)")
    return sign_fixed(f.u[:, r_i:] @ (top @ ritz.u), scale * ritz.sigma, ritz.vt)
