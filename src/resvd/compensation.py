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
   ``A`` of ``M M^T``, formed from ``M`` scaled so no entry exceeds 1, and
   one Rayleigh-Ritz step, the SVD of the ``r_r x n`` matrix ``A^T M``; the
   m x n residual is never formed;
3. concatenate both factor pairs (stage-1 columns first).

``U``, ``sigma`` and ``P`` depend on the matrix alone, so
:func:`whitened_weight` forms them once and every rank budget takes slices;
each budget forms its own ``M`` from ``P``, the one array the residual
stage needs.
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
    is ``w`` itself. No rank enters it, so every rank budget takes slices of
    the same two arrays, ``U`` and ``P``.
    """

    w: np.ndarray
    factors: SvdFactors


def whitened_weight(w, ctx: ScalingContext, name: str = "matrix") -> WhitenedWeight:
    """``w`` as a float64 matrix checked to be as wide as ``ctx`` whitens, with ``svd(W S)``
    and ``P = V^T S^{-1}``."""
    arr = as_matrix(w, name)
    if ctx.s.shape[0] != arr.shape[1]:
        raise DimensionError(
            f"{name}: scaling context is {ctx.s.shape[0]}x{ctx.s.shape[0]} "
            f"but the weight expects width {arr.shape[1]}"
        )
    f = svd(arr @ ctx.s, name=f"{name} (whitened)")
    return WhitenedWeight(arr, SvdFactors(f.u, f.sigma, f.vt @ ctx.s_inv))


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
    return join_stages(stage1, stage2)


def join_stages(stage1: FactorPair, residual: FactorPair) -> FactorPair:
    """One factor pair: ``stage1``'s columns first, then the residual stage's (step 3 above)."""
    return FactorPair(
        u_hat=np.hstack([stage1.u_hat, residual.u_hat]),
        v_hat=np.vstack([stage1.v_hat, residual.v_hat]),
    )


def direct_truncate_matrix(weight: WhitenedWeight, r: int) -> FactorPair:
    """Whitened truncation ``SVD_r(W S) S^{-1}``: the comparison baseline, and stage 1.

    ``S^{-1}`` is already folded into the right factor ``P``, so the
    product is exact.
    """
    return truncate(weight.factors, r)


def _scaled_tail(weight: WhitenedWeight, r_i: int) -> tuple[np.ndarray, float]:
    """``(M / c, c)`` for ``M = diag(sigma[r_i:]) P[r_i:]`` and ``c`` its largest entry magnitude.

    ``c`` is 1 when ``M`` is 0. Rounding is monotone, so no entry of
    ``M / c`` exceeds 1 and no entry of its Gram matrix exceeds the width
    ``n``, whatever the scale of ``w`` or of the activations.
    """
    f = weight.factors
    m = f.sigma[r_i:, np.newaxis] * f.vt[r_i:]
    scale = float(max(m.max(), -m.min())) or 1.0
    m /= scale
    return m, scale


def _residual_factors(weight: WhitenedWeight, r_i: int, r_r: int, name: str) -> SvdFactors:
    """Top ``r_r`` singular triplets of ``W - W_ri``, in the tail coordinates of ``svd(W S)``.

    They are those of ``m = M / c`` (:func:`_scaled_tail`), whose Gram
    matrix cannot overflow, with ``c`` scaling the singular values back at
    the end. Should ``eigh`` fail, the triplets come from :func:`svd` of
    ``m`` instead, with its own retries; only when that fails too is the
    matrix named.
    """
    m, scale = _scaled_tail(weight, r_i)
    try:
        _, vecs = np.linalg.eigh(m @ m.T)
    except np.linalg.LinAlgError:
        dense = svd(m, name=f"{name} (residual fallback)")
        left, sigma, vt = dense.u[:, :r_r], dense.sigma[:r_r], dense.vt[:r_r]
    else:
        top = vecs[:, : -r_r - 1 : -1]  # eigh sorts ascending; largest first
        ritz = svd(top.T @ m, name=f"{name} (residual)")
        left, sigma, vt = top @ ritz.u, ritz.sigma, ritz.vt
    return sign_fixed(weight.factors.u[:, r_i:] @ left, scale * sigma, vt)
