"""Sequential layered models: forward evaluation, layer-wise errors, parameter/MAC accounting.

A model is an ordered stack of layers; each layer applies its weight entries
in sequence as ``h -> h @ W^T`` and finishes with one elementwise activation.
Entries hold either a dense matrix or a low-rank :class:`~resvd.linalg.FactorPair`;
factored entries are evaluated as ``(h @ v_hat^T) @ u_hat^T`` without ever
materializing the product.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionError, NumericalError
from .linalg import FactorPair, as_matrix

if TYPE_CHECKING:
    from .calibration import CalibrationSet

ACTIVATIONS = ("identity", "relu", "silu")

# Layer and matrix names; they also name tensor files, so no path can hide in one.
NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def apply_activation(name: str, h: np.ndarray) -> np.ndarray:
    """Apply activation ``name`` to ``h`` in place and return ``h``.

    Callers pass an array they own, such as a fresh matmul output.
    """
    if name == "identity":
        return h
    if name == "relu":
        return np.maximum(h, 0.0, out=h)
    if name == "silu":
        # h * (0.5 + 0.5 * tanh(0.5 * h)), step for step, so results match the
        # allocating form bit for bit; sigmoid written this way cannot overflow
        t = np.multiply(h, 0.5)
        np.tanh(t, out=t)
        t *= 0.5
        t += 0.5
        h *= t
        return h
    raise ValueError(f"unknown activation {name!r}")


def _check_name(kind: str, name: str) -> None:
    if not NAME_RE.match(name):
        raise ValueError(f"{kind} name {name!r} must match [A-Za-z0-9._-]+")


@dataclass(frozen=True)
class MatrixEntry:
    """One named weight of shape (rows, cols), stored dense or factored.

    ``rows`` and ``cols`` are read off the stored arrays; a factored entry
    keeps the original dense shape, so compression ratios stay exact. Values
    are float64 in memory; the precision on disk is an argument of
    :func:`~resvd.containers.save_model`, not of the entry.
    """

    name: str
    dense: np.ndarray | None = None
    factors: FactorPair | None = None

    def __post_init__(self):
        _check_name("matrix", self.name)
        if (self.dense is None) == (self.factors is None):
            raise ValueError("exactly one of dense/factors must be set")
        if self.dense is not None and self.dense.ndim != 2:
            raise DimensionError(
                f"entry {self.name!r}: dense weight must be 2-D, got shape {self.dense.shape}"
            )

    @property
    def rows(self) -> int:
        return (self.dense if self.factors is None else self.factors.u_hat).shape[0]

    @property
    def cols(self) -> int:
        return (self.dense if self.factors is None else self.factors.v_hat).shape[1]

    @property
    def is_factored(self) -> bool:
        return self.factors is not None

    @property
    def param_count(self) -> int:
        if self.factors is not None:
            return self.factors.param_count
        return self.rows * self.cols

    def mac_count(self, batch: int) -> int:
        if self.factors is not None:
            r = self.factors.rank
            return batch * self.cols * r + batch * r * self.rows
        return batch * self.rows * self.cols

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.factors is not None:
            return (x @ self.factors.v_hat.T) @ self.factors.u_hat.T
        return x @ self.dense.T


@dataclass(frozen=True)
class Layer:
    name: str
    entries: tuple[MatrixEntry, ...]
    activation: str = "identity"

    def __post_init__(self):
        _check_name("layer", self.name)
        if not self.entries:
            raise ValueError(f"layer {self.name!r} has no weight entries")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        seen = set()
        for e in self.entries:
            if e.name in seen:
                raise ValueError(f"duplicate matrix name {e.name!r} in layer {self.name!r}")
            seen.add(e.name)
        for a, b in zip(self.entries, self.entries[1:]):
            if a.rows != b.cols:
                raise DimensionError(
                    f"layer {self.name!r}: entry {a.name!r} outputs width {a.rows} "
                    f"but {b.name!r} expects {b.cols}"
                )

    @property
    def input_dim(self) -> int:
        return self.entries[0].cols

    @property
    def output_dim(self) -> int:
        return self.entries[-1].rows

    def forward(self, x: np.ndarray) -> np.ndarray:
        """This layer's output for ``x``; ``x`` itself is never written."""
        h = x
        for e in self.entries:  # at least one, so h ends as a fresh array
            h = e.apply(h)
        return apply_activation(self.activation, h)


@dataclass(frozen=True)
class SequentialModel:
    layers: tuple[Layer, ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise DimensionError(
                    f"layer {a.name!r} outputs width {a.output_dim} but "
                    f"{b.name!r} expects {b.input_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def forward(model: SequentialModel, x) -> list[np.ndarray]:
    """Run all layers on a batch of row vectors, returning every layer's output.

    An output that overflows float64 comes back non-finite, without a numpy
    warning; :func:`check_finite` reports it.
    """
    return list(_walk(model.layers, _model_input(model, x)))


def _model_input(model: SequentialModel, x) -> np.ndarray:
    h = as_matrix(x, "input")
    if h.shape[1] != model.input_dim:
        raise DimensionError(
            f"input width {h.shape[1]} != model input_dim {model.input_dim}"
        )
    return h


def _walk(layers: Sequence[Layer], h: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each layer's output in turn, fed ``h`` as the first one's input.

    Every forward pass but the calibration pass, which whitens each
    matrix's input, is this loop. Each output is a fresh array the next
    layer only reads, so once the next output is out, a consumer owns the
    previous one: it may write it or drop it, and keeps at most two working
    arrays alive. ``h`` is never written.
    """
    for layer in layers:
        with np.errstate(over="ignore", invalid="ignore"):
            h = layer.forward(h)
        yield h


def output_norm(y: np.ndarray) -> float:
    """Frobenius norm; one that overflows float64 is inf, and numpy stays quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(y))


def _overflow(layer: Layer) -> NumericalError:
    return NumericalError(f"{layer.name}: output norm overflows float64 on the calibration set")


def check_finite(model: SequentialModel, norms: Sequence[float]) -> None:
    """Raise :class:`NumericalError` naming the first layer whose output norm is not finite.

    A norm is finite only when the output it measures is, so this also
    catches outputs that overflowed in :func:`forward`.
    """
    for layer, norm in zip(model.layers, norms, strict=True):
        if not math.isfinite(norm):
            raise _overflow(layer)


def _relative_errors(
    outputs: Iterable[np.ndarray], reference: Iterable[tuple[np.ndarray, float]]
) -> list[float]:
    """``|y - y_ref| / |y_ref|`` for each output, nan where the reference norm is zero.

    The outputs must be arrays the caller owns, such as :func:`_walk`'s:
    each one is scored only once the walk has produced the next, which was
    its last reader, by writing the difference into the output itself, so
    scoring allocates nothing. The references are only read.
    """
    errors = []
    # The last output and its reference, until the next is out. It is a
    # tuple of its own: zip reuses its result tuple, which would keep a
    # scored output alive through the next layer.
    pending = None
    for y, ref in zip(outputs, reference, strict=True):
        if pending is not None:
            errors.append(_relative_error(*pending))
        pending = y, ref
    if pending is not None:
        errors.append(_relative_error(*pending))
    return errors


def _relative_error(y: np.ndarray, reference: tuple[np.ndarray, float]) -> float:
    # a call, not loop locals, so ``y`` is released as soon as it is scored
    y_ref, norm = reference
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(y, y_ref, out=y)
    return math.nan if norm == 0.0 else output_norm(y) / norm


def tail_errors(
    model: SequentialModel,
    k: int,
    x,
    reference: Iterable[np.ndarray],
    reference_norms: Sequence[float],
) -> list[float]:
    """Relative output error of each of the last ``k`` layers, fed ``x`` as their input.

    ``reference`` and ``reference_norms`` give those layers' expected outputs
    and the outputs' Frobenius norms; an error is nan where the norm is zero.
    Each layer is scored in place once the next has run; ``reference`` is
    only read, so it may be a :func:`_walk` of the original layers from the
    same ``x``, which holds two outputs of its own whatever ``k``. This,
    :func:`final_layer_error` and :func:`layerwise_error` are the only places
    relative errors are computed, all through :func:`_walk` and
    :func:`_relative_error`, so the planner's scores, its ``errors.csv`` and
    ``analyze`` agree by construction.
    """
    def paired() -> Iterator[tuple[np.ndarray, float]]:
        # Fresh tuples, not zip's: when ``reference`` is a walk, zip's reused
        # result tuple would keep a scored reference alive through the next layer.
        for y_ref, norm in zip(reference, reference_norms, strict=True):
            yield y_ref, norm

    return _relative_errors(_walk(model.layers[model.n_layers - k :], x), paired())


def final_layer_error(
    model: SequentialModel, k: int, x, reference: np.ndarray, reference_norm: float
) -> float:
    """The last entry of :func:`tail_errors`, bit for bit, without scoring the layers before it.

    The last ``k`` layers run on ``x`` through the same walk; each output
    but the final one is dropped unscored once the next is out, so at most
    two outputs are alive. ``reference`` is only read.
    """
    if not 1 <= k <= model.n_layers:
        raise ValueError(f"k={k} outside [1, {model.n_layers}]")
    for y in _walk(model.layers[model.n_layers - k :], x):
        pass
    return _relative_error(y, (reference, reference_norm))


def parameter_count(model: SequentialModel) -> int:
    return sum(e.param_count for layer in model.layers for e in layer.entries)


def mac_count(model: SequentialModel, batch: int) -> int:
    """Multiply-accumulate ops for one forward pass over ``batch`` rows."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    return sum(e.mac_count(batch) for layer in model.layers for e in layer.entries)


def same_skeleton(a: SequentialModel, b: SequentialModel) -> bool:
    if a.n_layers != b.n_layers:
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.activation != lb.activation or len(la.entries) != len(lb.entries):
            return False
        for ea, eb in zip(la.entries, lb.entries):
            if (ea.rows, ea.cols) != (eb.rows, eb.cols):
                return False
    return True


def layerwise_error(
    original: SequentialModel,
    compressed: SequentialModel,
    calib: "CalibrationSet",
) -> tuple[float, ...]:
    """Relative Frobenius error of each layer's output over shared calibration inputs.

    Both models consume the same inputs at layer 0; the compressed model runs
    its own forward pass, so errors introduced early propagate downstream.
    The two passes walk in step, each compressed output scored in place
    and dropped once the next is out, so at most four outputs are held
    whatever the depth. A layer whose reference output has zero norm
    reports nan and the scan continues. The errors come from the loop that
    scores the planner's candidates (:func:`tail_errors`), so the two agree
    by construction.

    Raises:
        NumericalError: naming the first layer of ``original`` whose output
            or its norm overflows float64.
    """
    if not same_skeleton(original, compressed):
        raise DimensionError("models do not share an architecture skeleton")
    x = _model_input(original, calib.samples)

    def reference() -> Iterator[tuple[np.ndarray, float]]:
        for layer, y in zip(original.layers, _walk(original.layers, x)):
            norm = output_norm(y)
            if not math.isfinite(norm):
                raise _overflow(layer)
            yield y, norm

    return tuple(_relative_errors(_walk(compressed.layers, x), reference()))
