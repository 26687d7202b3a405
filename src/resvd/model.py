"""Sequential layered models: forward evaluation, layer-wise errors, parameter/MAC accounting.

A model is an ordered stack of layers; each layer applies its weight entries
in sequence as ``h -> h @ W^T`` and finishes with one elementwise activation.
Entries hold either a dense matrix or a low-rank :class:`~resvd.linalg.FactorPair`;
factored entries are evaluated as ``(h @ v_hat^T) @ u_hat^T`` without ever
materializing the product. Forward passes that keep no output past the next
write each one into a :class:`Workspace`, so the activations they hold are
arrays the workspace owns, not what the allocator keeps of a fresh array per
layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionError, NumericalError
from .linalg import FactorPair, as_matrix

if TYPE_CHECKING:
    from .calibration import CalibrationSet

ACTIVATIONS = ("identity", "relu", "silu")

# Layer and matrix names; they also name tensor files, so no path can hide in one.
NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def apply_activation(name: str, h: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Apply activation ``name`` to ``h`` in place and return ``h``.

    Callers pass an array they own, such as a fresh matmul output. silu's
    sigmoid goes into the member of ``ws``'s scratch pair that ``h`` does
    not occupy, or into a fresh array without ``ws``.
    """
    if name == "identity":
        return h
    if name == "relu":
        return np.maximum(h, 0.0, out=h)
    if name == "silu":
        # h * (0.5 + 0.5 * tanh(0.5 * h)), step for step, so results match the
        # allocating form bit for bit; sigmoid written this way cannot overflow
        t = np.multiply(h, 0.5, out=None if ws is None else ws.between(h.shape[1], h))
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

    def apply(self, x: np.ndarray, out: np.ndarray | None = None,
              ws: Workspace | None = None) -> np.ndarray:
        """``x @ W^T``, written into ``out`` when given, else into a fresh array.

        A factored entry's inner product goes into ``ws``'s rank scratch,
        or into a fresh array without ``ws``. Each product is the same GEMM
        wherever it is written, so the bits do not depend on ``out``.
        """
        if self.factors is None:
            return np.matmul(x, self.dense.T, out=out)
        inner = None if ws is None else ws.inner(self.factors.rank)
        return np.matmul(np.matmul(x, self.factors.v_hat.T, out=inner),
                         self.factors.u_hat.T, out=out)


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

    def forward(self, x: np.ndarray, out: np.ndarray | None = None,
                ws: Workspace | None = None) -> np.ndarray:
        """This layer's output for ``x``, written into ``out`` when given; ``x`` is never written.

        Every entry but the last writes into the member of ``ws``'s scratch
        pair that its input does not occupy, or into a fresh array without
        ``ws``; the activation then runs in place on the last entry's output,
        taking any temporary from that pair too.
        """
        h = x
        for e in self.entries[:-1]:
            h = e.apply(h, None if ws is None else ws.between(e.rows, h), ws)
        return apply_activation(self.activation, self.entries[-1].apply(h, out, ws), ws)


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


class Workspace:
    """The arrays that the forward passes of one command write their outputs into.

    Three buffers of ``rows × width`` float64, ``width`` being the widest
    layer output of ``model``, hold layer outputs. A walk writes each output
    into a buffer that holds neither the layer's input nor an array its
    caller still reads (:meth:`free`), so one walk cycles through two
    buffers and two walks in step fit in three. Within a layer, each entry
    but the last writes into a scratch pair (:meth:`between`), so a layer
    never writes over its own input or a buffer its caller holds; a silu
    layer takes its sigmoid from that pair once its entries are done; and a
    factored entry's inner product goes into a ``rows × rank`` scratch
    (:meth:`inner`). Each buffer is allocated on first use, and the rank
    scratch grows to the largest rank applied. Only models of ``model``'s
    skeleton, on ``rows`` rows, may run in it. A command makes one per call
    and shares it between its passes; none lives at module level.
    """

    def __init__(self, rows: int, model: SequentialModel):
        self.rows = rows
        self._width = max(layer.output_dim for layer in model.layers)
        self._pair_width = max([e.rows for layer in model.layers for e in layer.entries[:-1]]
                               + [layer.output_dim for layer in model.layers
                                  if layer.activation == "silu"], default=0)
        self._buffers: list[np.ndarray | None] = [None] * 3
        self._pair: list[np.ndarray | None] = [None] * 2
        self._inner = np.empty(0)

    def free(self, width: int, *held: np.ndarray | None) -> np.ndarray:
        """A ``rows × width`` view of the first output buffer that no array in ``held`` occupies."""
        return self._view(self._buffers, self._width, width, held)

    def between(self, width: int, h: np.ndarray) -> np.ndarray:
        """A ``rows × width`` view of the scratch-pair member that ``h`` does not occupy."""
        return self._view(self._pair, self._pair_width, width, (h,))

    def inner(self, rank: int) -> np.ndarray:
        """A ``rows × rank`` view of the rank scratch."""
        if self._inner.size < self.rows * rank:
            self._inner = np.empty(self.rows * rank)
        return self._inner[: self.rows * rank].reshape(self.rows, rank)

    def buffers(self) -> list[np.ndarray]:
        """Every array allocated so far, for checks that nothing outside shares their memory."""
        return [b for b in self._buffers + self._pair + [self._inner] if b is not None]

    def _view(self, pool: list[np.ndarray | None], size: int, width: int,
              held: Iterable[np.ndarray | None]) -> np.ndarray:
        for i, buf in enumerate(pool):
            if buf is None:
                buf = pool[i] = np.empty(self.rows * size)
            if not any(a is not None and np.may_share_memory(a, buf) for a in held):
                return buf[: self.rows * width].reshape(self.rows, width)
        raise RuntimeError("every workspace buffer is held")


def forward(model: SequentialModel, x) -> list[np.ndarray]:
    """Run all layers on a batch of row vectors, returning every layer's output.

    Each output is a fresh array, since all of them outlive the pass. An
    output that overflows float64 comes back non-finite, without a numpy
    warning; :func:`check_finite` reports it.
    """
    return list(_walk(model.layers, _model_input(model, x), None))


def _model_input(model: SequentialModel, x) -> np.ndarray:
    h = as_matrix(x, "input")
    if h.shape[1] != model.input_dim:
        raise DimensionError(
            f"input width {h.shape[1]} != model input_dim {model.input_dim}"
        )
    return h


def _walk(layers: Sequence[Layer], h: np.ndarray, ws: Workspace | None,
          keep: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield each layer's output in turn, fed ``h`` as the first one's input.

    Each output goes into the first buffer of ``ws`` that holds neither its
    input nor ``keep``, or into a fresh array when ``ws`` is None. So once
    the next output is out, the one before it is the consumer's to write or
    drop, and any later output may overwrite it. ``h`` and ``keep`` are
    never written. The calibration pass, which checks and whitens each
    matrix's input, and :func:`_errors_in_step` run the same layer applies
    in loops of their own.
    """
    for layer in layers:
        with np.errstate(over="ignore", invalid="ignore"):
            h = layer.forward(h, None if ws is None else ws.free(layer.output_dim, h, keep), ws)
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


def _relative_error(y: np.ndarray, reference: tuple[np.ndarray, float]) -> float:
    """``|y - y_ref| / |y_ref|`` for ``reference = (y_ref, norm)``, nan where the norm is zero.

    The difference is written into ``y``, which the caller owns and no
    longer reads, so scoring allocates nothing; ``y_ref`` is only read.
    """
    y_ref, norm = reference
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(y, y_ref, out=y)
    return math.nan if norm == 0.0 else output_norm(y) / norm


def _errors_in_step(
    layers: Sequence[Layer],
    reference: Sequence[Layer],
    h: np.ndarray,
    ws: Workspace,
    reference_norm: Callable[[int, np.ndarray], float],
) -> list[float]:
    """Relative error of each of ``layers``' outputs against ``reference``'s, both walked from ``h``.

    Each step writes the next output of ``layers``, scores the previous
    one in place against its reference output, and only then advances the
    reference, into the buffer that scoring freed. So the two walks hold
    three outputs at a time, all in ``ws``, and ``h`` is never written.
    ``reference_norm(i, y_ref)`` gives the norm of reference output ``i``
    and may raise on it.
    """
    errors = []
    y = y_ref = h
    for i, (layer, ref_layer) in enumerate(zip(layers, reference, strict=True)):
        with np.errstate(over="ignore", invalid="ignore"):
            y_next = layer.forward(y, ws.free(layer.output_dim, y, y_ref), ws)
            if i:
                errors.append(_relative_error(y, (y_ref, norm)))
            y_ref = ref_layer.forward(y_ref, ws.free(ref_layer.output_dim, y_ref, y_next), ws)
        norm = reference_norm(i, y_ref)
        y = y_next
    if layers:
        errors.append(_relative_error(y, (y_ref, norm)))
    return errors


def tail_errors(
    model: SequentialModel,
    k: int,
    x,
    reference: Sequence[Layer],
    reference_norms: Sequence[float],
    ws: Workspace | None = None,
) -> list[float]:
    """Relative output error of each of the last ``k`` layers, fed ``x`` as their input.

    ``reference`` holds the original layers those ``k`` replace, walked from
    the same ``x`` in step with them, and ``reference_norms`` the Frobenius
    norms of the original outputs; an error is nan where the norm is zero.
    Both walks run in ``ws`` (one of their own when None), three outputs at
    a time whatever ``k``, and ``x`` is only read. This,
    :func:`layerwise_error` and the planner's candidate scan are the only
    places relative errors are computed, all through
    :func:`_relative_error` on the same layer applies, so the planner's
    scores, its ``errors.csv`` and ``analyze`` agree by construction.
    """
    tail = model.layers[model.n_layers - k :]
    if ws is None:
        ws = Workspace(len(x), model)
    return _errors_in_step(tail, reference, x, ws, lambda i, y_ref: reference_norms[i])


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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are float64 arrays of one shape holding the same bits.

    Unlike ``==``, this tells 0.0 from -0.0. Arrays of any other dtype never match.
    """
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _same_entry(a: MatrixEntry, b: MatrixEntry) -> bool:
    if a.factors is None or b.factors is None:
        return a.factors is b.factors and _same_bits(a.dense, b.dense)
    return (_same_bits(a.factors.u_hat, b.factors.u_hat)
            and _same_bits(a.factors.v_hat, b.factors.v_hat))


def _shared_prefix(a: SequentialModel, b: SequentialModel) -> int:
    """How many leading layers of ``b`` store ``a``'s arrays bit for bit.

    Only called on models of one skeleton, so those layers also share their
    shapes and activations and compute the same outputs.
    """
    shared = 0
    for la, lb in zip(a.layers, b.layers):
        if not all(map(_same_entry, la.entries, lb.entries)):
            break
        shared += 1
    return shared


def layerwise_error(
    original: SequentialModel,
    compressed: SequentialModel,
    calib: "CalibrationSet",
) -> tuple[float, ...]:
    """Relative Frobenius error of each layer's output over shared calibration inputs.

    Both models consume the same inputs at layer 0, and errors introduced
    early propagate downstream. The leading layers in which ``compressed``
    stores the original's arrays bit for bit compute the original's
    outputs, so only the original walks them: each scores exactly 0.0, or
    nan where its reference norm is zero. From the first layer that
    differs, fed the reference output there, the two models walk in step
    through :func:`_errors_in_step`, the loop that scores the planner's
    winner (:func:`tail_errors`), so the two agree by construction. Every
    pass runs in one :class:`Workspace` of this call's own, so at most three
    outputs are held whatever the depth. A layer whose reference output has
    zero norm reports nan and the scan continues. A prefix stored at lower
    precision, such as a ``--dtype f32`` output, does not match and is
    walked by both models.

    Raises:
        NumericalError: naming the first layer of ``original`` whose output
            or its norm overflows float64.
    """
    if not same_skeleton(original, compressed):
        raise DimensionError("models do not share an architecture skeleton")
    h = _model_input(original, calib.samples)
    ws = Workspace(len(h), original)
    shared = _shared_prefix(original, compressed)

    def reference_norm(i: int, y: np.ndarray) -> float:
        norm = output_norm(y)
        if not math.isfinite(norm):
            raise _overflow(original.layers[i])
        return norm

    errors = []
    for i, h in enumerate(_walk(original.layers[:shared], h, ws)):
        errors.append(math.nan if reference_norm(i, h) == 0.0 else 0.0)
    errors += _errors_in_step(compressed.layers[shared:], original.layers[shared:], h, ws,
                              lambda i, y: reference_norm(shared + i, y))
    return tuple(errors)
