"""Calibration samples, activation capture, and whitening contexts.

Whitening follows the Cholesky-of-Gram construction: for a weight matrix
with input activations X, ``S`` is the lower Cholesky factor of
``X^T X + ridge*I``. Truncating ``W S`` instead of ``W`` then minimizes the
activation-weighted output loss, and weights are reconstructed through
``S^{-1}``. Activations so large that ``X^T X`` overflows float64, like a
Gram matrix that is not positive definite, raise
:class:`~resvd.errors.SingularWhiteningError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, SingularWhiteningError
from .linalg import as_matrix
from .model import SequentialModel, apply_activation

DEFAULT_RIDGE_SCALE = 1e-6


@dataclass(frozen=True)
class CalibrationSet:
    """A batch of calibration rows plus the seed and source they came from."""

    samples: np.ndarray
    seed: int = 0
    source: str = "unknown"

    def __post_init__(self):
        object.__setattr__(self, "samples", as_matrix(self.samples, "calibration samples"))

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def input_dim(self) -> int:
        return self.samples.shape[1]

    def subsample(self, n: int, seed: int) -> "CalibrationSet":
        """Seeded random row selection without replacement (all rows if n >= size)."""
        if n < 1:
            raise ValueError("subsample size must be >= 1")
        if n >= self.num_samples:
            return CalibrationSet(samples=self.samples, seed=seed, source=self.source)
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(self.num_samples, size=n, replace=False))
        return CalibrationSet(samples=self.samples[idx], seed=seed, source=self.source)


@dataclass(frozen=True)
class ScalingContext:
    """Whitening matrix S (lower-triangular, positive diagonal) and its inverse.

    ``whitened`` caches ``svd(W S)`` for the last weight array factored
    against this context (see :func:`resvd.compensation.whitened_svd`), so
    repeated trials on one weight decompose it once.
    """

    s: np.ndarray
    s_inv: np.ndarray
    ridge: float
    whitened: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.s.shape[0]
        if self.s.shape != (n, n) or self.s_inv.shape != (n, n):
            raise DimensionError("scaling matrices must be square and same-sized")
        if not np.all(np.diag(self.s) > 0):
            raise SingularWhiteningError("whitening factor has a non-positive diagonal")
        if not np.max(np.abs(self.s @ self.s_inv - np.eye(n))) <= 1e-6:
            raise SingularWhiteningError(
                "whitening factor is too ill-conditioned to invert; increase the ridge"
            )


def whiten(x, ridge: float | None = None) -> ScalingContext:
    """Build a ScalingContext from an activation matrix.

    Args:
        x: activations, one row per observed input.
        ridge: diagonal regularizer added to the Gram matrix. ``None`` picks
            ``1e-6 * trace(X^T X)/n``; pass 0.0 for strict whitening.

    Raises:
        SingularWhiteningError: when the Gram matrix overflows float64, or
            the regularized Gram matrix is not positive definite (try a
            larger ridge, unless ``x`` is all zero).
    """
    arr = as_matrix(x, "activations")
    n = arr.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = arr.T @ arr
        trace = float(np.trace(gram))  # the default ridge scales with it
    if not (np.isfinite(gram).all() and np.isfinite(trace)):
        raise SingularWhiteningError("activation Gram matrix overflows float64; "
                                     "the activations are too large")
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * trace / n
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if ridge > 0:
        gram = gram + ridge * np.eye(n)
    try:
        s = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        advice = ("its activations are all zero, so an earlier layer outputs nothing"
                  if trace == 0.0 else "increase the ridge")
        raise SingularWhiteningError(
            f"activation Gram matrix is not positive definite (ridge={ridge!r}); {advice}"
        ) from exc
    s_inv = np.linalg.inv(s)
    return ScalingContext(s=s, s_inv=s_inv, ridge=float(ridge))


def capture_activations(
    model: SequentialModel, calib: CalibrationSet
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Inputs seen by every weight matrix over the calibration set, and the model's output.

    Keys are ``"<layer>/<matrix>"`` in forward order. All sample rows are
    stacked into one activation matrix per weight; no per-batch averaging.
    Activations are applied in place on each layer's fresh matmul output, so
    no captured array is ever written.

    Raises:
        NumericalError: naming the first matrix whose output overflows
            float64, before an activation could hide it.
    """
    if calib.input_dim != model.input_dim:
        raise DimensionError(
            f"calibration width {calib.input_dim} != input width "
            f"{model.input_dim} of layer {model.layers[0].name!r}"
        )
    captured: dict[str, np.ndarray] = {}
    h = calib.samples
    for layer in model.layers:
        for entry in layer.entries:
            key = f"{layer.name}/{entry.name}"
            captured[key] = h
            with np.errstate(over="ignore", invalid="ignore"):
                h = entry.apply(h)
            if not np.isfinite(h).all():
                raise NumericalError(f"{key}: output overflows float64 on the calibration set")
        h = apply_activation(layer.activation, h)
    return captured, h


def whitening_contexts(
    activations: dict[str, np.ndarray], ridge: float | None = None
) -> dict[str, ScalingContext]:
    """One ScalingContext per captured weight matrix, keyed like the activation map.

    A whitening failure names the key of the matrix it failed on.
    """
    contexts = {}
    for key, x in activations.items():
        try:
            contexts[key] = whiten(x, ridge)
        except SingularWhiteningError as exc:
            raise SingularWhiteningError(f"{key}: {exc}") from exc
    return contexts
