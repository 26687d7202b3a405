"""Two-stage whitened truncation with residual compensation.

The rank budget ``r = r_i + r_r`` is split between a whitened truncation of
the weight itself and a plain truncation of the leftover residual:

1. factor ``W S = U diag(sigma) V^T`` at rank ``r_i``; with
   ``P = V^T S^{-1}``, ``U diag(sigma) P`` is ``W`` itself, so the
   intermediate approximation ``W_ri`` is ``U[:, :r_i] diag(sigma[:r_i])
   P[:r_i]``;
2. factor the residual ``W - W_ri`` at rank ``r_r`` in unwhitened space, in
   those tail coordinates: the residual is exactly ``U[:, r_i:] M`` with
   ``M = diag(sigma[r_i:]) P[r_i:]``, and ``U``'s columns are orthonormal,
   so its top ``r_r`` triplets are those of ``M`` with the left vectors
   lifted by ``U[:, r_i:]``. They come from the top ``r_r`` eigenvectors
   ``A`` of ``M M^T``, a scaled trailing block of one Gram matrix of ``P``,
   and one Rayleigh-Ritz step, the SVD of the ``r_r x n`` matrix ``A^T M``;
   neither the m x n residual nor ``M`` itself is formed;
3. concatenate both factor pairs (stage-1 columns first).

``P`` and its Gram matrix depend on the matrix alone, so
:func:`whitened_weight` forms them once and every rank budget takes slices.
The combined product is never worse than truncating ``W S`` at rank ``r``
directly, because the discarded whitened tail is itself a rank-``r_r``
competitor to the optimal residual truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ScalingContext
from .errors import DimensionError
from .linalg import FactorPair, SvdFactors, as_matrix, rank_budget, sign_fixed, svd, truncate


@dataclass(frozen=True, eq=False)
class WhitenedWeight:
    """``w`` in the coordinates of ``svd(W S) = U diag(sigma) V^T``: see :func:`whitened_weight`.

    ``factors`` is ``(U, sigma, P)`` with ``P = V^T S^{-1}``, so its product
    is ``w`` itself. ``gram`` is the Gram matrix of ``P`` with each row
    divided by its largest magnitude, ``row_scale``, so no entry exceeds the
    width ``n`` whatever the scale of ``w`` or of the activations. No rank
    enters it, so every rank budget takes slices of the same arrays.
    """

    w: np.ndarray
    factors: SvdFactors
    row_scale: np.ndarray
    gram: np.ndarray


def whitened_weight(w, ctx: ScalingContext, name: str = "matrix") -> WhitenedWeight:
    """``w`` as a float64 matrix checked to be as wide as ``ctx`` whitens, with ``svd(W S)``,
    ``P = V^T S^{-1}`` and the row-scaled Gram matrix of ``P``."""
    arr = as_matrix(w, name)
    if ctx.s.shape[0] != arr.shape[1]:
        raise DimensionError(
            f"{name}: scaling context is {ctx.s.shape[0]}x{ctx.s.shape[0]} "
            f"but the weight expects width {arr.shape[1]}"
        )
    f = svd(arr @ ctx.s, name=f"{name} (whitened)")
    p = f.vt @ ctx.s_inv
    # no row is zero: V^T has orthonormal rows and S^{-1} is nonsingular
    row_scale = np.max(np.abs(p), axis=1)
    unit = p / row_scale[:, np.newaxis]
    return WhitenedWeight(arr, SvdFactors(f.u, f.sigma, p), row_scale, unit @ unit.T)


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

    ``S^{-1}`` is already folded into the right factor ``P``, so the
    product is exact.
    """
    return truncate(weight.factors, r)


def _residual_factors(weight: WhitenedWeight, r_i: int, r_r: int, name: str) -> SvdFactors:
    """Top ``r_r`` singular triplets of ``W - W_ri``, in the tail coordinates of ``svd(W S)``.

    ``M M^T`` is ``c^2 D G D``, with ``G`` the trailing block of
    ``weight.gram``, ``D = diag(sigma * row_scale) / c`` over the tail and
    ``c`` the largest entry of ``sigma * row_scale`` there (1 when all are
    0). Every entry of ``D`` is at most 1, so ``D G D`` cannot overflow;
    ``c`` scales the singular values back at the end. Should ``eigh`` fail,
    the triplets come from :func:`svd` of ``M / c`` instead, with its own
    retries; only when that fails too is the matrix named.
    """
    f = weight.factors
    tail = f.sigma[r_i:] * weight.row_scale[r_i:]
    scale = tail.max() or 1.0
    d = tail / scale
    p_tail = f.vt[r_i:]
    m_rows = (f.sigma[r_i:] / scale)[:, np.newaxis]  # M / c = m_rows * p_tail
    try:
        _, vecs = np.linalg.eigh(d[:, np.newaxis] * weight.gram[r_i:, r_i:] * d)
    except np.linalg.LinAlgError:
        dense = svd(m_rows * p_tail, name=f"{name} (residual fallback)")
        left, sigma, vt = dense.u[:, :r_r], dense.sigma[:r_r], dense.vt[:r_r]
    else:
        top = vecs[:, : -r_r - 1 : -1]  # eigh sorts ascending; largest first
        ritz = svd((top * m_rows).T @ p_tail, name=f"{name} (residual)")
        left, sigma, vt = top @ ritz.u, ritz.sigma, ritz.vt
    return sign_fixed(f.u[:, r_i:] @ left, scale * sigma, vt)
