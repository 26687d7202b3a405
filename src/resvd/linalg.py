"""Dense SVD, truncation, and rank-budget arithmetic.

Everything downstream (whitening, residual compensation, planning) is built
on the four operations here. All arithmetic is float64; matrices are plain
2-D C-contiguous numpy arrays validated at the boundary by :func:`as_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleBudgetError, InvalidRankError, NumericalError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a float64 row-major matrix, rejecting bad shapes and non-finite entries."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have positive dims, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdFactors:
    """Full thin SVD of a matrix: ``u @ diag(sigma) @ vt`` reconstructs the input.

    ``sigma`` is non-increasing and non-negative; ``u`` is m x p, ``vt`` is
    p x n with p = min(m, n).
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    def __post_init__(self):
        p = self.sigma.shape[0]
        if self.u.ndim != 2 or self.vt.ndim != 2 or self.sigma.ndim != 1:
            raise DimensionError("SvdFactors fields have wrong ranks")
        if self.u.shape[1] != p or self.vt.shape[0] != p:
            raise DimensionError("SvdFactors inner dimensions disagree")
        if np.any(self.sigma < 0) or np.any(np.diff(self.sigma) > 0):
            raise NumericalError("singular values must be non-negative and non-increasing")


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factorization ``u_hat @ v_hat`` approximating an m x n matrix."""

    u_hat: np.ndarray
    v_hat: np.ndarray

    def __post_init__(self):
        m, r1 = self.u_hat.shape
        r2, n = self.v_hat.shape
        if r1 != r2:
            raise DimensionError(f"factor ranks {r1}/{r2} disagree")
        if r1 > min(m, n):
            raise InvalidRankError(f"rank {r1} exceeds min{(m, n)}")

    @property
    def rank(self) -> int:
        return self.u_hat.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u_hat.shape[0], self.v_hat.shape[1])

    @property
    def param_count(self) -> int:
        m, n = self.shape
        return (m + n) * self.rank

    def product(self) -> np.ndarray:
        """Materialize ``u_hat @ v_hat`` (tests only)."""
        return self.u_hat @ self.v_hat


@dataclass(frozen=True)
class RankBudget:
    """Split of a target rank into intermediate and residual parts.

    ``alpha = m*n/(m+n)`` is the rank at which a factored representation
    holds exactly as many parameters as the dense matrix.
    """

    alpha: float
    r_i: int
    r_r: int

    def __post_init__(self):
        if self.r_i < 1 or self.r_r < 0:
            raise InvalidRankError(f"invalid budget r_i={self.r_i}, r_r={self.r_r}")

    @property
    def r(self) -> int:
        """The target rank, ``r_i + r_r``."""
        return self.r_i + self.r_r


def svd(w, name: str = "matrix") -> SvdFactors:
    """Thin SVD with a fixed sign convention.

    The largest-magnitude entry of each left singular vector is forced
    non-negative so repeated runs produce byte-identical factors.

    LAPACK's divide-and-conquer SVD can fail to converge on an ordinary
    finite matrix. The routes of :data:`_SVD_ROUTES` are then tried in
    order; only a matrix none of them factors raises. A matrix the first
    route factors never reaches the others, so its bytes do not depend on
    them.

    Raises:
        NumericalError: naming ``name`` when every route fails.
    """
    arr = as_matrix(w, name)
    for route in _SVD_ROUTES:
        try:
            u, sigma, vt = route(arr)
        except np.linalg.LinAlgError as exc:
            failure = exc
            continue
        return sign_fixed(u, sigma, vt)
    raise NumericalError(f"SVD failed to converge on {name}") from failure


def _thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.linalg.svd(a, full_matrices=False)


def _svd_of_transpose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a = U Σ Vᵀ`` read off the SVD of ``aᵀ = V Σ Uᵀ``."""
    v, sigma, ut = np.linalg.svd(a.T, full_matrices=False)
    return np.ascontiguousarray(ut.T), sigma, np.ascontiguousarray(v.T)


def _svd_of_qr_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD of the square triangular factor of a QR, lifted back by Q.

    A tall ``a = Q R`` has ``a = (Q U) Σ Vᵀ`` for ``R = U Σ Vᵀ``; a wide
    ``a`` factors its transpose the same way, so Q lifts the right factor.
    """
    if a.shape[0] >= a.shape[1]:
        q, r = np.linalg.qr(a)
        u, sigma, vt = np.linalg.svd(r)
        return q @ u, sigma, vt
    q, r = np.linalg.qr(a.T)
    u, sigma, vt = np.linalg.svd(r.T)
    return u, sigma, vt @ q.T


# Tried in order by :func:`svd` until one converges.
_SVD_ROUTES = (_thin_svd, _svd_of_transpose, _svd_of_qr_factor)


def sign_fixed(u: np.ndarray, sigma: np.ndarray, vt: np.ndarray) -> SvdFactors:
    """``SvdFactors`` under :func:`svd`'s sign convention, flipping ``u`` and ``vt`` in place.

    The largest-magnitude entry of each column of ``u`` is made
    non-negative, and the matching row of ``vt`` flips with it.
    """
    # np.argmax picks the first maximal |entry|, making ties deterministic.
    peaks = np.argmax(np.abs(u), axis=0)
    flip = u[peaks, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return SvdFactors(u=u, sigma=sigma, vt=vt)


def truncate(f: SvdFactors, r: int) -> FactorPair:
    """Best rank-``r`` approximation with singular values split across both factors.

    Returns ``u_hat = U_r sqrt(S_r)`` and ``v_hat = sqrt(S_r) V_r^T`` so the
    two factors carry balanced scales.
    """
    p = f.sigma.shape[0]
    if not 1 <= r <= p:
        raise InvalidRankError(f"rank {r} outside [1, {p}]")
    root = np.sqrt(f.sigma[:r])
    u_hat = f.u[:, :r] * root[np.newaxis, :]
    v_hat = root[:, np.newaxis] * f.vt[:r, :]
    return FactorPair(u_hat=u_hat, v_hat=v_hat)


def rank_budget(m: int, n: int, layer_ratio: float, beta: float) -> RankBudget:
    """Turn a layer compression ratio into integer ranks for the two truncation stages.

    ``r = floor((1-layer_ratio) * alpha)``; the residual share is
    ``round(alpha*beta)`` clamped into ``[1, r-1]`` when beta > 0 (zero when
    the clamp interval is empty) and 0 when beta == 0.

    Raises:
        InfeasibleBudgetError: if the ratio is too aggressive for the shape
            (target rank would fall below 1).
    """
    if m < 1 or n < 1:
        raise DimensionError(f"matrix dims must be positive, got {m}x{n}")
    if not 0.0 <= layer_ratio < 1.0:
        raise ValueError(f"layer_ratio must be in [0, 1), got {layer_ratio!r}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta!r}")
    alpha = (m * n) / (m + n)
    r = int(np.floor((1.0 - layer_ratio) * alpha))
    if r < 1:
        raise InfeasibleBudgetError(m, n, layer_ratio)
    if beta > 0.0:
        r_r = min(max(round(alpha * beta), 1), r - 1)
    else:
        r_r = 0
    return RankBudget(alpha=alpha, r_i=r - r_r, r_r=r_r)


def frobenius_error(a, b) -> float:
    """Frobenius norm of ``a - b``; zero iff the matrices are equal."""
    x = as_matrix(a, "a")
    y = as_matrix(b, "b")
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y))
