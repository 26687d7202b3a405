"""Calibration samples, whitening contexts, and the calibration pass that builds them.

Whitening follows the Cholesky-of-Gram construction: for a weight matrix
with input activations X, ``S`` is the lower Cholesky factor of
``X^T X + ridge*I``. Truncating ``W S`` instead of ``W`` then minimizes the
activation-weighted output loss, and weights are reconstructed through
``S^{-1}``. Activations so large that ``X^T X`` overflows float64, like a
Gram matrix that is not positive definite, raise
:class:`~resvd.errors.SingularWhiteningError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import DimensionError, NumericalError, SingularWhiteningError
from .linalg import as_matrix
from .model import SequentialModel, Workspace, output_norm

T = TypeVar("T")

DEFAULT_RIDGE_SCALE = 1e-6


@dataclass(frozen=True)
class CalibrationSet:
    """A batch of calibration rows, one input vector per row."""

    samples: np.ndarray

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
            return self
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(self.num_samples, size=n, replace=False))
        return CalibrationSet(samples=self.samples[idx])


@dataclass(frozen=True)
class ScalingContext:
    """Whitening matrix S (lower-triangular, positive diagonal) and its inverse."""

    s: np.ndarray
    s_inv: np.ndarray
    ridge: float

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
    model: SequentialModel,
    calib: CalibrationSet,
    tail: int,
    factor: Callable[[np.ndarray, ScalingContext, str], T],
    ws: Workspace,
) -> tuple[dict[str, T], tuple[float, ...], np.ndarray]:
    """One forward pass over the calibration set that whitens the last ``tail`` layers' inputs.

    Each matrix of those layers is passed, with the :func:`whiten` context
    of its input and its key ``"<layer>/<matrix>"``, to ``factor(w, ctx,
    key)`` while that input is live, so no input outlives the next matrix
    and no context outlives its ``factor`` call. Returns ``factor``'s
    results keyed in forward order, every layer's output norm (see
    :func:`~resvd.model.output_norm`) and a copy of the model's output,
    which the caller keeps. Each layer runs through
    :meth:`~resvd.model.Layer.steps`, which writes every output into
    ``ws``, so the pass holds two of its buffers whatever the depth, plus
    the scratch pair for the entries within a layer and silu's sigmoid;
    ``calib.samples`` is never written.

    Raises:
        DimensionError: when the calibration width is not the model's.
        NumericalError: naming the first matrix whose output overflows
            float64, before an activation could hide it, or the first layer
            whose output is all zeros, before any later input is whitened:
            the layers have no bias, so every later output is zero too and
            no relative error is defined.
        SingularWhiteningError: naming the first tail matrix whose input
            cannot be whitened.
    """
    if calib.input_dim != model.input_dim:
        raise DimensionError(
            f"calibration width {calib.input_dim} != input width "
            f"{model.input_dim} of layer {model.layers[0].name!r}"
        )
    split = model.n_layers - tail
    factored: dict[str, T] = {}
    norms = []
    h = calib.samples
    for i, layer in enumerate(model.layers):
        for entry, x, y in layer.steps(h, ws):
            key = f"{layer.name}/{entry.name}"
            if not np.isfinite(y).all():
                raise NumericalError(f"{key}: output overflows float64 on the calibration set")
            if i >= split:
                try:
                    ctx = whiten(x)
                except SingularWhiteningError as exc:
                    raise SingularWhiteningError(f"{key}: {exc}") from exc
                factored[key] = factor(entry.dense, ctx, key)
        h = y  # the activation has run on it in place
        norms.append(output_norm(h))
        if norms[-1] == 0.0:
            raise NumericalError(f"{layer.name}: output is all zeros on the calibration set, "
                                 "so the model outputs nothing to compress against")
    return factored, tuple(norms), h.copy()
