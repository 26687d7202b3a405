"""Two-stage whitened truncation with residual compensation.

The rank budget ``r = r_i + r_r`` is split between a whitened truncation of
the weight itself and a plain truncation of the leftover residual. ``S`` is
the Cholesky factor array of :func:`resvd.calibration.whiten`. With
``W S = U diag(sigma) V^T``, multiplying on the left by ``U^T`` gives
``U^T W = diag(sigma) V^T S^{-1}``, so every quantity both stages need is a
product of ``U``'s columns with ``W``; neither ``V`` nor ``S^{-1}`` is kept:

1. the whitened truncation ``SVD_{r_i}(W S) S^{-1}`` is the projection
   ``W_ri = U_i U_i^T W`` onto ``U``'s first ``r_i`` columns, factored as
   ``U_i sqrt(sigma_i)`` times ``sigma_i^{-1/2} U_i^T W``;
2. factor the residual ``W - W_ri`` at rank ``r_r`` in unwhitened space, in
   those tail coordinates: the residual is exactly ``U[:, r_i:] M`` with
   ``M = U[:, r_i:]^T W``, and ``U``'s columns are orthonormal, so its top
   ``r_r`` triplets are those of ``M`` with the left vectors lifted by
   ``U[:, r_i:]``. They come from the top ``r_r`` eigenvectors ``A`` of
   ``M M^T``, formed from ``M`` scaled so no entry exceeds 1, and one
   Rayleigh-Ritz step, the SVD of the ``r_r x n`` matrix ``A^T M``; the
   m x n residual is never formed;
3. concatenate both factor pairs (stage-1 columns first).

``U`` and ``sigma`` depend on the matrix alone, so :func:`whitened_weight`
forms them once and every rank budget takes slices; each budget forms its
own products with ``W``, so ``U`` is the one array kept per matrix beyond
the weight itself.
The combined product is never worse than truncating ``W S`` at rank ``r``
directly, because the discarded whitened tail is itself a rank-``r_r``
competitor to the optimal residual truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidRankError, SingularWhiteningError
from .linalg import FactorPair, SvdFactors, as_matrix, rank_budget, sign_fixed, svd, truncate


@dataclass(frozen=True, eq=False)
class WhitenedWeight:
    """``w`` with ``u`` and ``sigma`` of ``svd(W S) = U diag(sigma) V^T``: see
    :func:`whitened_weight`.

    No rank enters it, so every rank budget takes slices of the one array
    ``u`` and multiplies them with ``w``, which the model already holds.
    """

    w: np.ndarray
    u: np.ndarray
    sigma: np.ndarray


def whitened_weight(w, s: np.ndarray, name: str = "matrix") -> WhitenedWeight:
    """``w`` as a float64 matrix, with ``U`` and ``sigma`` of ``svd(W S)`` for the Cholesky
    factor array ``s`` of :func:`~resvd.calibration.whiten`. Naming the matrix, it raises
    DimensionError when ``s`` is not ``n x n`` for the weight's width ``n`` and
    SingularWhiteningError when ``s`` holds a non-finite entry."""
    arr = as_matrix(w, name)
    if s.shape != (arr.shape[1],) * 2:
        raise DimensionError(f"{name}: whitening matrix is {s.shape} for width {arr.shape[1]}")
    if not np.isfinite(s).all():
        raise SingularWhiteningError(f"{name}: whitening matrix has a non-finite entry")
    f = svd(arr @ s, name=f"{name} (whitened)")
    return WhitenedWeight(arr, f.u, f.sigma)


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

    It is the projection ``U_r U_r^T W``, returned as ``u_hat = U_r
    sqrt(sigma_r)`` and ``v_hat = sigma_r^{-1/2} U_r^T W``, so both factors
    carry balanced scales as in :func:`~resvd.linalg.truncate`. A row of
    ``v_hat`` whose singular value is 0 is 0: its column of ``u_hat`` is 0
    too, and ``U``'s column there is orthogonal to ``W``'s rows.
    """
    p = weight.sigma.shape[0]
    if not 1 <= r <= p:
        raise InvalidRankError(f"rank {r} outside [1, {p}]")
    u = weight.u[:, :r]
    root = np.sqrt(weight.sigma[:r])
    live = np.count_nonzero(root)  # sigma is non-increasing, so its zeros come last
    v_hat = u.T @ weight.w
    v_hat[:live] /= root[:live, np.newaxis]
    v_hat[live:] = 0.0
    return FactorPair(u_hat=u * root, v_hat=v_hat)


def _scaled_tail(weight: WhitenedWeight, r_i: int) -> tuple[np.ndarray, float]:
    """``(M / c, c)`` for ``M = U[:, r_i:]^T W`` and ``c`` its largest entry magnitude.

    ``c`` is 1 when ``M`` is 0. Rounding is monotone, so no entry of
    ``M / c`` exceeds 1 and no entry of its Gram matrix exceeds the width
    ``n``, whatever the scale of ``w`` or of the activations.
    """
    m = weight.u[:, r_i:].T @ weight.w
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
    return sign_fixed(weight.u[:, r_i:] @ left, scale * sigma, vt)
