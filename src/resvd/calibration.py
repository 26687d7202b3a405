"""Calibration samples, whitening, and the calibration pass that whitens each tail matrix
into the one calibrated state, :class:`CalibratedModel`, that every trial shares.

Whitening follows the Cholesky-of-Gram construction: for a weight matrix
with input activations X, ``S`` is the lower Cholesky factor of
``X^T X + ridge*I``, the float64 array :func:`whiten` returns. Truncating
``W S`` instead of ``W`` then minimizes the activation-weighted output
loss. No weight is reconstructed through ``S^{-1}``: with
``svd(W S) = U diag(sigma) V^T``, the truncation is the projection of
``W`` onto ``U``'s leading columns (see :mod:`resvd.compensation`), so
``S`` is never inverted. Activations so large that ``X^T X`` overflows
float64, like a Gram matrix that is not positive definite, raise
:class:`~resvd.errors.SingularWhiteningError`.
"""

from __future__ import annotations

import copy
import errno
import itertools
import math
import os
import sys
import tempfile
import weakref
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .compensation import WhitenedWeight, whitened_weight
from .errors import DimensionError, FormatError, NumericalError, SingularWhiteningError
from .linalg import as_matrix
from .model import SequentialModel, Workspace, check_finite, squared_norm

DEFAULT_RIDGE_SCALE = 1e-6

# The most bytes a file-backed set reads at once beyond a block's own rows:
# a subsample's rows go through a scratch of this size, a load checks the
# rows finite a chunk of this size at a time, and a CSV is read in these.
READ_CHUNK_BYTES = 1 << 18


class RowFile:
    """Float64 rows stored little-endian and row-major from byte ``offset`` of an open file.

    ``fd`` is a raw descriptor that this object owns: it is closed once
    nothing refers to the object (or by :attr:`close`), so no file object is
    left for the garbage collector to warn about. Rows are read from that
    descriptor, so a file replaced by rename after it was opened still
    serves its old rows; a file rewritten in place is not supported.
    """

    def __init__(self, path, fd: int, offset: int, shape: tuple[int, int]):
        self.path, self.offset, self.shape = path, offset, shape
        self._fd = fd
        self.close = weakref.finalize(self, os.close, fd)

    @classmethod
    def spill(cls, what: str) -> "RowFile":
        """An empty file for rows of ``what``, filled by :meth:`append` and :meth:`write`.

        :func:`tempfile.TemporaryFile` makes it with no name, so it is gone
        once its descriptor is closed, in ``tempfile.tempdir`` if a program
        set it, else under ``TMPDIR``, and never elsewhere when that cannot
        be used, as :func:`tempfile.gettempdir` would.

        Raises:
            OSError: naming the directory, when the file cannot be made.
        """
        directory = tempfile.tempdir or os.environ.get("TMPDIR") or tempfile.gettempdir()
        where = f"{what} spilled under {directory}"
        try:
            with tempfile.TemporaryFile(dir=directory) as f:
                fd = os.dup(f.fileno())
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, where) from exc
        return cls(where, fd, 0, (0, 0))

    def append(self, rows: np.ndarray) -> None:
        """Store the float64 ``rows`` after the last row, and count them in ``shape``.

        Raises:
            OSError: naming the path, when the write fails.
        """
        at = self.offset + self.shape[0] * rows.shape[1] * 8
        self.shape = (self.shape[0] + len(rows), rows.shape[1])
        self.write(at, rows)

    def write(self, at: int, a: np.ndarray) -> None:
        """Store ``a`` as little-endian float64, row-major, from byte ``at``; an ``OSError``
        naming the path when the write fails."""
        view = memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B")
        try:
            while view:
                n = os.pwrite(self._fd, view, at)
                view, at = view[n:], at + n
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.path) from exc

    def pieces(self, buf: memoryview, at: int, end: int) -> Iterator[memoryview]:
        """Bytes ``at`` to ``end`` of the file, through ``buf``: each piece fills it, or holds
        the rest of the range, and the next piece overwrites it. An ``OSError`` naming the path
        when the file ends first."""
        while at < end:
            piece = view = buf[: end - at]
            while view:
                n = os.preadv(self._fd, [view], at)
                if n == 0:
                    raise OSError(errno.EIO, "file ends early", self.path)
                view, at = view[n:], at + n
            yield piece

    def array(self, at: int, shape) -> np.ndarray:
        """The native float64 array of ``shape`` stored little-endian from byte ``at``. An
        ``OSError`` naming the path when the file ends first."""
        out = np.empty(shape)
        for _ in self.pieces(memoryview(out).cast("B"), at, at + out.nbytes):
            pass
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
        return out

    def read(self, start: int, out: np.ndarray) -> np.ndarray:
        """Rows ``start`` to ``start + len(out)`` into the C-contiguous float64 ``out``.

        Raises:
            FormatError: naming the path, when the file ends before the
                last of those rows (it was truncated after it was checked),
                or naming the first of them that holds a non-finite value.
        """
        view = memoryview(out).cast("B")
        at = self.offset + start * self.shape[1] * 8
        while view:
            n = os.preadv(self._fd, [view], at)
            if n == 0:
                raise FormatError(f"{self.path}: ends before row {start + len(out)}; "
                                  "it was truncated while in use")
            view, at = view[n:], at + n
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
        # min and max propagate nan and allocate no array of out's size
        if not (np.isfinite(out.min()) and np.isfinite(out.max())):
            bad = np.flatnonzero(~np.isfinite(out).all(axis=1))[0]
            raise FormatError(f"{self.path}: row {start + bad + 1} holds a non-finite value")
        return out

    def read_back(self, start: int, out: np.ndarray) -> np.ndarray:
        """:meth:`read` for rows this run wrote, checked finite: a file that ends first was cut
        short in use, which ends the run, so it raises ``OSError(errno.EIO, <read's message>)``."""
        try:
            return self.read(start, out)
        except FormatError as exc:
            raise OSError(errno.EIO, str(exc)) from exc


class CalibrationSet:
    """Calibration rows, one input vector per row, held in memory or read from a file.

    ``CalibrationSet(samples=array)`` holds ``array``;
    :func:`~resvd.containers.load_calibration` makes a set that reads its
    rows from an ERCC file through a :class:`RowFile`. A :meth:`subsample`
    keeps a sorted index into its parent's rows and copies none. Every pass
    takes each block's rows from :meth:`block`; :attr:`samples` gives every
    row at once, which a file-backed set reads whole, so no pass uses it.
    """

    def __init__(self, samples=None, *, file: RowFile | None = None):
        if (samples is None) == (file is None):
            raise ValueError("exactly one of samples/file must be set")
        self._array = None if samples is None else as_matrix(samples, "calibration samples")
        self._file = file
        self._index: np.ndarray | None = None  # sorted rows of the parent, for a subsample
        self.num_samples, self.input_dim = (self._array if file is None else file).shape

    @property
    def samples(self) -> np.ndarray:
        """Every row, read-only: an in-memory set's array, or a fresh read of every row."""
        if self._array is not None and self._index is None:
            return self._array
        out = self._read(slice(0, self.num_samples),
                         np.empty((self.num_samples, self.input_dim)))
        out.flags.writeable = False
        return out

    def subsample(self, n: int, seed: int) -> "CalibrationSet":
        """Seeded random row selection without replacement (all rows if n >= size).

        The selection is a sorted index of this set's rows, so no row is
        copied: a subsample of a file-backed set reads its rows from the
        file, block by block, as its parent does.
        """
        if n < 1:
            raise ValueError("subsample size must be >= 1")
        if n >= self.num_samples:
            return self
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(self.num_samples, size=n, replace=False))
        chosen = copy.copy(self)
        chosen._index = idx if self._index is None else self._index[idx]
        chosen.num_samples = n
        return chosen

    def block(self, rows: slice, ws: Workspace) -> np.ndarray:
        """The rows ``rows`` of this set, for one block of a pass in ``ws``, which only reads them.

        An in-memory set with no index gives a view of its array. Any other
        set writes them into the first of ``ws``'s output buffers, in which
        a pass holds nothing at the start of a block, so they last until the
        walk from them writes its second output: a file-backed set reads
        them from the file with ``os.preadv`` and checks them finite as it
        reads, and a subsample gathers its index's rows, from its array or
        from the file. The same rows reach a pass either way, so its results
        do not depend on where the set keeps them.
        """
        if self._array is not None and self._index is None:
            return self._array[rows]
        return self._read(rows, ws.free(rows.stop - rows.start, self.input_dim))

    def _read(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """The rows ``rows`` written into ``out``; see :meth:`block`.

        A subsample of a file reads the file in chunks of at most
        :data:`READ_CHUNK_BYTES`, each from one wanted row to the last
        wanted row within a chunk's reach, and gathers its wanted rows, so
        the gaps read stay shorter than a chunk.
        """
        if self._index is None:
            return self._file.read(rows.start, out)
        index = self._index[rows]
        # mode="clip" lets take write into ``out`` unbuffered; every index is in range
        if self._file is None:
            return np.take(self._array, index, axis=0, out=out, mode="clip")
        chunk = np.empty((max(1, READ_CHUNK_BYTES // (8 * self.input_dim)), self.input_dim))
        done = 0
        while done < len(index):
            first = int(index[done])
            stop = int(np.searchsorted(index, first + len(chunk)))
            span = self._file.read(first, chunk[: index[stop - 1] + 1 - first])
            np.take(span, index[done:stop] - first, axis=0, out=out[done:stop], mode="clip")
            done = stop
        return out


def whiten(gram, ridge: float | None = None) -> np.ndarray:
    """The lower Cholesky factor ``S`` of ``X^T X + ridge*I``, as a float64 array, for the
    Gram matrix ``X^T X`` of an activation matrix ``X``.

    The calibration pass sums ``gram`` over its row blocks, so no caller
    holds ``X`` itself.

    Args:
        gram: ``X^T X``, square; an entry that overflowed is inf or nan.
        ridge: diagonal regularizer added to the Gram matrix. ``None`` picks
            ``1e-6 * trace(X^T X)/n``; pass 0.0 for strict whitening.

    Raises:
        SingularWhiteningError: when the Gram matrix overflows float64, or
            the regularized Gram matrix is not positive definite (try a
            larger ridge, unless ``X`` is all zero).
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DimensionError(f"Gram matrix must be square, got shape {gram.shape}")
    n = gram.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
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
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        advice = ("its activations are all zero, so an earlier layer outputs nothing"
                  if trace == 0.0 else "increase the ridge")
        raise SingularWhiteningError(
            f"activation Gram matrix is not positive definite (ridge={ridge!r}); {advice}"
        ) from exc


def gram(x: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """``x^T x``, added into ``total`` when one is given; an entry that
    overflows is inf or nan, and numpy stays quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.T @ x
        if total is None:
            return g
        total += g
        return total


def state_shapes(model: SequentialModel, tail: int, rows: int) -> list[list[int]]:
    """The shape of each array of the state of ``model``'s last ``tail`` layers on ``rows``
    calibration rows, in the order its file holds them: the norms, ``U`` then sigma of each
    matrix of :meth:`~resvd.model.SequentialModel.tail_entries`, the output rows."""
    shapes = [[model.n_layers]]
    for _, e in model.tail_entries(tail):
        p = min(e.rows, e.cols)
        shapes += [[e.rows, p], [p]]
    return shapes + [[rows, model.layers[-1].output_dim]]


@dataclass(frozen=True, eq=False)
class CalibratedModel:
    """What a pass of ``model`` over the calibration set leaves for every trial of at most
    :attr:`tail` layers, none of it depending on ``k``: :func:`capture_activations` returns
    it checked, and :func:`resvd.state_cache.load` returns it from an entry that pass wrote.

    ``output`` is the file that holds the state, its arrays laid out as
    :func:`state_shapes` lists them: an unlinked temporary file the pass
    wrote, or a cache entry. Its rows (``offset`` and ``shape``) are the last
    layer's output on the calibration set. ``matrices`` holds each matrix
    of the last :attr:`tail` layers, keyed ``"<layer>/<matrix>"`` in forward
    order, as a float64 array (the model's own when it is float64 and
    row-major) with the byte offset of its ``U`` in that file, sigma
    following it; no ``U`` is held in memory, and :meth:`weight` reads one
    when a trial factors its matrix. ``reference_norms[i]`` is the Frobenius
    norm of layer ``i``'s output on the calibration set, every one finite.
    No activation is held: a trial's input is the original model's input to
    its first factored layer, which :func:`resvd.planner._scan` walks to.
    """

    model: SequentialModel
    tail: int
    matrices: dict[str, tuple[np.ndarray, int]]
    reference_norms: tuple[float, ...]
    output: RowFile

    @classmethod
    def in_file(cls, model: SequentialModel, tail: int, at: list[int],
                norms: tuple[float, ...], file: RowFile) -> "CalibratedModel":
        """The state of ``model``'s last ``tail`` layers in ``file``, whose arrays start at the
        byte offsets ``at``, the output rows last and ``U`` and sigma of those layers before
        them; ``file``'s rows are the output rows."""
        entries = list(model.tail_entries(tail))
        u_at = at[-1 - 2 * len(entries)::2]  # each U's offset, then the output rows', unpaired
        matrices = {key: (as_matrix(e.dense, key), u) for (key, e), u in zip(entries, u_at)}
        return cls(model, tail, matrices, norms, file)

    def weight(self, key: str) -> WhitenedWeight:
        """Tail matrix ``key`` with its ``U`` and sigma, read from :attr:`output`'s file now; an
        ``OSError`` naming the file when it ends first."""
        w, at = self.matrices[key]
        u = self.output.array(at, (w.shape[0], min(w.shape)))
        return WhitenedWeight(w, u, self.output.array(at + u.nbytes, u.shape[1:]))


def capture_activations(model: SequentialModel, calib: CalibrationSet, tail: int,
                        ws: Workspace) -> CalibratedModel:
    """One forward pass over the calibration set that whitens the last ``tail`` layers' inputs.

    The pass runs each layer on every block of ``ws`` before the next layer
    runs, on the calibration rows (:meth:`CalibrationSet.block`) or on the
    previous layer's output, read back into a buffer of ``ws`` by
    :meth:`RowFile.read_back` from the file it went to, its rows checked
    finite before they were written and again as they are read.
    :meth:`~resvd.model.Layer.steps` writes every output into ``ws``, so the
    pass holds two block buffers whatever the depth and the row count, plus
    the scratch pair for the entries within a layer and silu's sigmoid.
    Each block adds its inputs' :func:`gram` to the layer's tail matrices'
    sums and its output's squared norm to the layer's, and writes that
    output to a file, so no array grows with the row count ``S``.

    The state goes to one :meth:`RowFile.spill` file, made first, in the
    layout :func:`state_shapes` gives, which is a state entry's: after the
    last block of a tail layer each of its matrices, in forward order, is
    whitened from its summed Gram matrix (:func:`whiten`), factored by
    :func:`~resvd.compensation.whitened_weight`, and its ``U`` and sigma
    written there and dropped, with the Gram matrix, so one layer's Gram
    matrices and one matrix's ``U`` exist at a time. The last layer writes
    its output rows there, and the norms go last. The layers before the
    last write their outputs to two more spills in turn, each written over
    from its start once the layer that read it is through: two exist at
    once, ``S·(W_i + W_{i+1})·8`` bytes for outputs ``W_i`` and
    ``W_{i+1}`` wide, beside ``Σ (m·p + p)·8`` bytes of ``U`` and sigma for
    the tail's ``m x n`` matrices of ``p = min(m, n)``. In a run of one
    block each Gram matrix is the one ``x.T @ x`` product and each norm
    the one dot product ``np.linalg.norm`` takes the root of, so the
    results do not depend on the blocks but through rounding. Returns the
    :class:`CalibratedModel` of that file, which goes once the state is
    dropped; its norms are checked finite last, after every layer has run.

    Raises:
        OSError: naming the file, when it cannot be made, written or read back whole.
        DimensionError: when the calibration width is not the model's.
        NumericalError: naming the first fault in forward order, each layer's
            found before the next layer runs: a matrix whose output overflows
            float64 in any block, before an activation could hide it, a tail
            matrix whose whitened SVD fails, or a layer whose output is all
            zeros, before any later input is whitened: the layers have no
            bias, so every later output is zero too and no relative error is
            defined. Failing those, once every layer has run, the first layer
            whose output norm overflows float64 though its output does not.
        SingularWhiteningError: naming the first tail matrix whose input
            cannot be whitened, unless a fault above comes before it.
    """
    if calib.input_dim != model.input_dim:
        raise DimensionError(
            f"calibration width {calib.input_dim} != input width "
            f"{model.input_dim} of layer {model.layers[0].name!r}"
        )
    split = model.n_layers - tail
    *at, _ = itertools.accumulate(
        (8 * math.prod(shape) for shape in state_shapes(model, tail, calib.num_samples)),
        initial=0)
    state = RowFile.spill("the model output")
    state.offset, slots = at[-1], iter(at[1:-1])  # slots: where each U and sigma goes
    spills: list[RowFile | None] = [None, None]  # the layers before the last write these in turn
    norms = []
    source = None  # the previous layer's file; the first layer reads the calibration rows
    for i, layer in enumerate(model.layers):
        spills[i % 2] = spill = (state if i == model.n_layers - 1
                                 else spills[i % 2] or RowFile.spill("the model output"))
        spill.shape = (0, 0)  # a reused spill is written over from its start
        grams: dict[int, np.ndarray] = {}
        bad, square = len(layer.entries), 0.0  # bad: the first entry that overflows in any block
        for rows in ws.blocks:
            if source is None:
                h = calib.block(rows, ws)
            else:
                h = source.read_back(rows.start, ws.free(rows.stop - rows.start, source.shape[1]))
            for j, (entry, x, y) in enumerate(layer.steps(h, ws)):
                if i >= split:
                    grams[j] = gram(x, grams.get(j))
                if not np.isfinite(y).all():
                    bad = min(bad, j)
                    break
            else:  # the activation has run on y in place
                square += squared_norm(y)
                spill.append(y)
        for j, (key, entry) in enumerate(layer.keyed_entries()):
            if j == bad:
                raise NumericalError(f"{key}: output overflows float64 on the calibration set")
            if i >= split:
                try:
                    s = whiten(grams.pop(j))
                except SingularWhiteningError as exc:
                    raise SingularWhiteningError(f"{key}: {exc}") from exc
                weight = whitened_weight(entry.dense, s, key)
                state.write(next(slots), weight.u)
                state.write(next(slots), weight.sigma)
        if square == 0.0:
            raise NumericalError(f"{layer.name}: output is all zeros on the calibration set, "
                                 "so the model outputs nothing to compress against")
        norms.append(math.sqrt(square))
        source = spill
    check_finite(model, norms)  # after the pass, whose per-layer checks name the fault instead
    state.write(0, np.array(norms))
    return CalibratedModel.in_file(model, tail, at, tuple(norms), state)
