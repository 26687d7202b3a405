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
STORE_DTYPES = ("f64", "f32")

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


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
    if not _NAME_RE.match(name):
        raise ValueError(f"{kind} name {name!r} must match [A-Za-z0-9._-]+")


@dataclass(frozen=True)
class MatrixEntry:
    """One named weight of shape (rows, cols), stored dense or factored.

    ``rows``/``cols`` always record the original dense shape so compression
    ratios stay exact after factorization. ``store_dtype`` remembers the
    on-disk precision so containers round-trip byte-identically.
    """

    name: str
    rows: int
    cols: int
    dense: np.ndarray | None = None
    factors: FactorPair | None = None
    store_dtype: str = "f64"

    def __post_init__(self):
        _check_name("matrix", self.name)
        if self.store_dtype not in STORE_DTYPES:
            raise ValueError(f"store_dtype must be one of {STORE_DTYPES}")
        if (self.dense is None) == (self.factors is None):
            raise ValueError("exactly one of dense/factors must be set")
        if self.dense is not None and self.dense.shape != (self.rows, self.cols):
            raise DimensionError(
                f"entry {self.name!r}: dense shape {self.dense.shape} != "
                f"declared ({self.rows}, {self.cols})"
            )
        if self.factors is not None and self.factors.shape != (self.rows, self.cols):
            raise DimensionError(
                f"entry {self.name!r}: factored shape {self.factors.shape} != "
                f"declared ({self.rows}, {self.cols})"
            )

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
    input_dim: int
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
        if self.layers[0].input_dim != self.input_dim:
            raise DimensionError(
                f"model input_dim {self.input_dim} != first layer width "
                f"{self.layers[0].input_dim}"
            )
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise DimensionError(
                    f"layer {a.name!r} outputs width {a.output_dim} but "
                    f"{b.name!r} expects {b.input_dim}"
                )

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

    Every forward pass but the one that captures each matrix's input is this
    loop. Each output is a fresh array the next layer only reads, so a
    consumer that drops it after use keeps one working array alive, and
    ``h`` is never written.
    """
    for layer in layers:
        with np.errstate(over="ignore", invalid="ignore"):
            h = layer.forward(h)
        yield h


def _norm(y: np.ndarray) -> float:
    """Frobenius norm; one that overflows float64 is inf, and numpy stays quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(y))


def output_norms(outputs: Sequence[np.ndarray]) -> tuple[float, ...]:
    """Frobenius norm of each output (see :func:`_norm`)."""
    return tuple(_norm(y) for y in outputs)


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

    The difference goes through one reused buffer, so scoring allocates
    nothing per layer while the widths stay the same.
    """
    errors = []
    diff = None
    for y, (y_ref, norm) in zip(outputs, reference, strict=True):
        if diff is None or diff.shape != y.shape:
            diff = np.empty_like(y)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(y, y_ref, out=diff)
        errors.append(math.nan if norm == 0.0 else _norm(diff) / norm)
    return errors


def tail_errors(
    model: SequentialModel,
    k: int,
    x,
    reference: Sequence[np.ndarray],
    reference_norms: Sequence[float],
) -> list[float]:
    """Relative output error of each of the last ``k`` layers, fed ``x`` as their input.

    ``reference`` and ``reference_norms`` hold those layers' expected outputs
    and the outputs' Frobenius norms; an error is nan where the norm is zero.
    Each layer is scored as soon as it runs. This and :func:`layerwise_error`
    are the only places relative errors are computed, both through one
    scoring loop, so the planner's candidate scores and ``analyze`` agree by
    construction.
    """
    return _relative_errors(_walk(model.layers[model.n_layers - k :], x),
                            zip(reference, reference_norms, strict=True))


def parameter_count(model: SequentialModel) -> int:
    return sum(e.param_count for layer in model.layers for e in layer.entries)


def mac_count(model: SequentialModel, batch: int) -> int:
    """Multiply-accumulate ops for one forward pass over ``batch`` rows."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    return sum(e.mac_count(batch) for layer in model.layers for e in layer.entries)


def same_skeleton(a: SequentialModel, b: SequentialModel) -> bool:
    if a.n_layers != b.n_layers or a.input_dim != b.input_dim:
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
    The two passes walk in step, each layer scored and dropped as it runs,
    so memory stays at a few outputs whatever the depth. A layer whose
    reference output has zero norm reports nan and the scan continues. The
    errors come from the loop that scores the planner's candidates
    (:func:`tail_errors`), so the two agree by construction.

    Raises:
        NumericalError: naming the first layer of ``original`` whose output
            or its norm overflows float64.
    """
    if not same_skeleton(original, compressed):
        raise DimensionError("models do not share an architecture skeleton")
    x = _model_input(original, calib.samples)

    def reference() -> Iterator[tuple[np.ndarray, float]]:
        for layer, y in zip(original.layers, _walk(original.layers, x)):
            norm = _norm(y)
            if not math.isfinite(norm):
                raise _overflow(layer)
            yield y, norm

    return tuple(_relative_errors(_walk(compressed.layers, x), reference()))
