"""Sequential layered models: forward evaluation, layer-wise errors, parameter/MAC accounting.

A model is an ordered stack of layers; each layer applies its weight entries
in sequence as ``h -> h @ W^T`` and finishes with one elementwise activation.
Entries hold either a dense matrix or a low-rank :class:`~resvd.linalg.FactorPair`;
factored entries are evaluated as ``(h @ v_hat^T) @ u_hat^T`` without ever
materializing the product. Every forward pass walks the rows in the blocks
of a :class:`Workspace` and writes its outputs into it, through
:meth:`Layer.steps`, the one place that picks where an output goes;
:func:`forward` copies out the outputs it returns. Norms and errors are
sums of squares over the blocks, taken in block order.
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

# Bytes of one workspace output buffer: a pass over more rows than fit at the
# widest layer output walks them in blocks (see Workspace).
BLOCK_BYTES = 2 << 20


def apply_activation(name: str, h: np.ndarray, ws: Workspace) -> np.ndarray:
    """Apply activation ``name`` to ``h`` in place and return ``h``.

    Callers pass an array they own, such as a layer's output. silu's
    sigmoid goes into the member of ``ws``'s scratch pair that ``h`` does
    not occupy.
    """
    if name == "identity":
        return h
    if name == "relu":
        return np.maximum(h, 0.0, out=h)
    if name == "silu":
        # h * (0.5 + 0.5 * tanh(0.5 * h)), step for step, so results match the
        # allocating form bit for bit; sigmoid written this way cannot overflow
        t = np.multiply(h, 0.5, out=ws.between(h.shape[1], h))
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

    def apply(self, x: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
        """``x @ W^T``, written into ``out``.

        A factored entry's inner product goes into ``ws``'s rank scratch.
        Each product is the same GEMM wherever it is written, so the bits
        do not depend on ``out``.
        """
        if self.factors is None:
            return np.matmul(x, self.dense.T, out=out)
        return np.matmul(np.matmul(x, self.factors.v_hat.T,
                                   out=ws.inner(len(x), self.factors.rank)),
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

    def keyed_entries(self) -> Iterator[tuple[str, MatrixEntry]]:
        """Each entry with its key ``"<layer>/<matrix>"``, built only here, in the order this
        layer applies them: the order of the calibration pass and of every cache entry."""
        for e in self.entries:
            yield f"{self.name}/{e.name}", e

    def steps(self, x: np.ndarray, ws: Workspace,
              *held: np.ndarray) -> Iterator[tuple[MatrixEntry, np.ndarray, np.ndarray]]:
        """Run this layer on ``x``, yielding ``(entry, input, output)`` as each entry's product is out.

        The layer's output goes into a buffer of ``ws`` that neither ``x``
        nor ``held`` occupies, and every other entry's into the member of
        the scratch pair that its input does not. Once the last yield is
        resumed, the activation runs in place on the layer's output. An
        output that overflows float64 comes out non-finite, without a numpy
        warning.
        """
        out = ws.free(len(x), self.output_dim, x, *held)
        h = x
        for e in self.entries:
            with np.errstate(over="ignore", invalid="ignore"):
                y = e.apply(h, out if e is self.entries[-1] else ws.between(e.rows, h), ws)
            yield e, h, y
            h = y
        with np.errstate(over="ignore", invalid="ignore"):
            apply_activation(self.activation, out, ws)

    def forward(self, x: np.ndarray, ws: Workspace, *held: np.ndarray) -> np.ndarray:
        """This layer's output for ``x``: :meth:`steps` run to the end."""
        for _, _, y in self.steps(x, ws, *held):
            pass
        return y


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

    def tail_entries(self, k: int) -> Iterator[tuple[str, MatrixEntry]]:
        """:meth:`Layer.keyed_entries` of the last ``k`` layers in forward order, the one walk of
        a tail's matrices: the pass whitens them in this order, and each cache entry's writer and
        reader walk its arrays in it."""
        for layer in self.layers[self.n_layers - k :]:
            yield from layer.keyed_entries()


class Workspace:
    """The arrays that the forward passes of one command write their outputs into.

    A pass over ``rows`` rows walks them in :attr:`blocks` of at most
    :attr:`rows` rows each: as few blocks as keep one block of the widest
    layer output ``W`` within :data:`BLOCK_BYTES`, as even as can be, so
    ``n = ceil(rows / (BLOCK_BYTES // 8W))`` blocks of ``ceil(rows / n)``
    rows, the last one ragged. A run of one block is the single pass over
    every row, bit for bit. Three buffers of ``B × W`` float64 hold layer
    outputs.
    :meth:`Layer.steps` picks every buffer: it writes each layer's output
    into one that holds neither the layer's input nor an array its caller
    still reads (:meth:`free`), so one walk cycles through two buffers and
    two walks in step fit in three. Within a layer, each entry but the last
    writes into a scratch pair (:meth:`between`), so a layer never writes
    over its own input or a buffer its caller holds; a silu layer takes its
    sigmoid from that pair once its entries are done; and a factored entry's
    inner product goes into a ``B × rank`` scratch (:meth:`inner`). A
    calibration set that does not hold its rows as one array reads each
    block's rows into the first output buffer (:meth:`free`, at the start
    of the block, when the pass holds no output), so the output buffers
    are as wide as the model's input where that is wider than ``W``; ``B``
    still comes from ``W``. Each buffer is allocated on first use, and the
    rank scratch grows to the largest rank applied. Only models of
    ``model``'s skeleton, on blocks of at most ``B`` rows, may run in it. A
    command makes one per call and shares it between its passes; none lives
    at module level.
    """

    def __init__(self, rows: int, model: SequentialModel):
        width = max(layer.output_dim for layer in model.layers)
        n_blocks = -(-rows // max(1, BLOCK_BYTES // (8 * width)))
        self.rows = -(-rows // n_blocks)
        self.blocks = tuple(slice(start, min(start + self.rows, rows))
                            for start in range(0, rows, self.rows))
        self._pair_width = max([e.rows for layer in model.layers for e in layer.entries[:-1]]
                               + [layer.output_dim for layer in model.layers
                                  if layer.activation == "silu"], default=0)
        self._width = max(width, model.input_dim)  # a block's rows may be read into a buffer
        self._buffers: list[np.ndarray | None] = [None] * 3
        self._pair: list[np.ndarray | None] = [None] * 2
        self._inner = np.empty(0)

    def free(self, rows: int, width: int, *held: np.ndarray) -> np.ndarray:
        """A ``rows × width`` view of the first output buffer that no array in ``held`` occupies."""
        return self._view(self._buffers, self._width, rows, width, held)

    def between(self, width: int, h: np.ndarray) -> np.ndarray:
        """A view, as tall as ``h`` and ``width`` wide, of the scratch-pair member ``h`` does not occupy."""
        return self._view(self._pair, self._pair_width, len(h), width, (h,))

    def inner(self, rows: int, rank: int) -> np.ndarray:
        """A ``rows × rank`` view of the rank scratch."""
        if self._inner.size < self.rows * rank:
            self._inner = np.empty(self.rows * rank)
        return self._inner[: rows * rank].reshape(rows, rank)

    def buffers(self) -> list[np.ndarray]:
        """Every array allocated so far, for checks that nothing outside shares their memory."""
        return [b for b in self._buffers + self._pair + [self._inner] if b is not None]

    def _view(self, pool: list[np.ndarray | None], size: int, rows: int, width: int,
              held: Iterable[np.ndarray]) -> np.ndarray:
        for i, buf in enumerate(pool):
            if buf is None:
                buf = pool[i] = np.empty(self.rows * size)
            if not any(np.may_share_memory(a, buf) for a in held):
                return buf[: rows * width].reshape(rows, width)
        raise RuntimeError("every workspace buffer is held")


def forward(model: SequentialModel, x) -> list[np.ndarray]:
    """Run all layers on a batch of row vectors, returning every layer's output.

    The pass runs in a :class:`Workspace` of its own, and each block's
    outputs are copied out of it into full-size arrays, since all of them
    outlive the pass. An output that overflows float64 comes back
    non-finite, without a numpy warning; :func:`check_finite` reports it.
    """
    h = _model_input(model, x)
    ws = Workspace(len(h), model)
    outputs = [np.empty((len(h), layer.output_dim)) for layer in model.layers]
    for rows in ws.blocks:
        for out, y in zip(outputs, _walk(model.layers, h[rows], ws)):
            out[rows] = y
    return outputs


def _model_input(model: SequentialModel, x) -> np.ndarray:
    h = as_matrix(x, "input")
    if h.shape[1] != model.input_dim:
        raise DimensionError(
            f"input width {h.shape[1]} != model input_dim {model.input_dim}"
        )
    return h


def _walk(layers: Sequence[Layer], h: np.ndarray, ws: Workspace) -> Iterator[np.ndarray]:
    """Yield each layer's output in turn, fed ``h`` as the first one's input.

    Each output goes into the first buffer of ``ws`` that does not hold its
    input (:meth:`Layer.forward`). So once the next output is out, the one
    before it is the consumer's to write or drop, and any later output may
    overwrite it; ``h`` is never written. The planner walks the original
    layers through this to reach each trial's input, and
    :func:`layerwise_error` the prefix a compressed model shares.
    """
    for layer in layers:
        h = layer.forward(h, ws)
        yield h


def squared_norm(y: np.ndarray) -> float:
    """Squared Frobenius norm, the dot product ``np.linalg.norm`` takes the root of.

    One that overflows float64 is inf, and numpy stays quiet.
    """
    flat = y.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(flat.dot(flat))


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


def _squared_error(y: np.ndarray, y_ref: np.ndarray) -> float:
    """``|y - y_ref|²``, the squared numerator of one block's relative error.

    The difference is written into ``y``, which the caller owns and no
    longer reads, so scoring allocates nothing; ``y_ref`` is only read.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(y, y_ref, out=y)
    return squared_norm(y)


def _relative_error(squared_error: float, norm: float) -> float:
    """``sqrt(squared_error) / norm``, nan where the reference norm is zero.

    ``squared_error`` is :func:`_squared_error` summed over the blocks in
    order; the planner and :func:`layerwise_error` both finish an error
    here, so their final errors agree bit for bit.
    """
    return math.nan if norm == 0.0 else math.sqrt(squared_error) / norm


def _squares_in_step(
    layers: Sequence[Layer],
    reference: Sequence[Layer],
    h: np.ndarray,
    ws: Workspace,
) -> list[tuple[float, float]]:
    """``(|y - y_ref|², |y_ref|²)`` for each of ``layers``' outputs against ``reference``'s,
    both walked from the block ``h``.

    Each step writes the next output of ``layers``, scores the previous
    one in place against its reference output, and only then advances the
    reference, into the buffer that scoring freed. So the two walks hold
    three outputs at a time, all in ``ws``, and ``h`` is never written.
    A square that overflows is inf.
    """
    squares = []
    y = y_ref = h
    for i, (layer, ref_layer) in enumerate(zip(layers, reference, strict=True)):
        y_next = layer.forward(y, ws, y_ref)
        if i:
            squares.append((_squared_error(y, y_ref), ref_squared))
        y_ref = ref_layer.forward(y_ref, ws, y_next)
        ref_squared = squared_norm(y_ref)
        y = y_next
    if layers:
        squares.append((_squared_error(y, y_ref), ref_squared))
    return squares


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
    shapes and activations and compute the same outputs. A layer object
    both models hold, as a trial holds its original's prefix, matches
    without its arrays being compared.
    """
    shared = 0
    for la, lb in zip(a.layers, b.layers):
        if la is not lb and not all(map(_same_entry, la.entries, lb.entries)):
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
    through :func:`_squares_in_step`. Each block of a :class:`Workspace`
    of this call's own is walked so in turn, from its rows as
    :meth:`~resvd.calibration.CalibrationSet.block` gives them, so the
    pass holds three block buffers whatever the depth and the row count;
    each layer's squared error and squared reference norm are summed over
    the blocks in order,
    as the planner sums a candidate's. ``compress`` writes its
    ``errors.csv`` with this call and ``analyze`` its CSV, so the two
    agree by construction. A layer whose reference output has zero norm
    reports nan and the scan continues. A prefix stored at lower
    precision, such as a ``--dtype f32`` output, does not match and is
    walked by both models.

    Raises:
        NumericalError: naming the first layer of ``original`` whose output
            or its norm overflows float64.
    """
    if not same_skeleton(original, compressed):
        raise DimensionError("models do not share an architecture skeleton")
    if calib.input_dim != original.input_dim:
        raise DimensionError(
            f"input width {calib.input_dim} != model input_dim {original.input_dim}"
        )
    ws = Workspace(calib.num_samples, original)
    shared = _shared_prefix(original, compressed)
    errors_sq = [0.0] * original.n_layers
    refs_sq = [0.0] * original.n_layers
    for rows in ws.blocks:
        x = calib.block(rows, ws)
        squares = []
        for x in _walk(original.layers[:shared], x, ws):
            squares.append((0.0, squared_norm(x)))
        squares += _squares_in_step(compressed.layers[shared:], original.layers[shared:], x, ws)
        for i, (error_sq, ref_sq) in enumerate(squares):
            errors_sq[i] += error_sq
            refs_sq[i] += ref_sq
    norms = [math.sqrt(ref_sq) for ref_sq in refs_sq]
    check_finite(original, norms)
    return tuple(map(_relative_error, errors_sq, norms))
