"""Calibration samples, whitening, and the calibration pass that whitens each tail matrix.

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
import math
import os
import sys
import tempfile
import weakref
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import DimensionError, FormatError, NumericalError, SingularWhiteningError
from .linalg import as_matrix
from .model import SequentialModel, Workspace, squared_norm

T = TypeVar("T")

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
        """An empty file for rows of ``what``, filled by :meth:`append`.

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
        view = memoryview(np.ascontiguousarray(rows, dtype="<f8")).cast("B")
        at = self.offset + self.shape[0] * rows.shape[1] * 8
        self.shape = (self.shape[0] + len(rows), rows.shape[1])
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


def capture_activations(
    model: SequentialModel,
    calib: CalibrationSet,
    tail: int,
    factor: Callable[[np.ndarray, np.ndarray, str], T],
    ws: Workspace,
) -> tuple[dict[str, T], tuple[float, ...], RowFile]:
    """One forward pass over the calibration set that whitens the last ``tail`` layers' inputs.

    The pass runs each layer on every block of ``ws`` before the next layer
    runs, on the calibration rows (:meth:`CalibrationSet.block`) or on the
    previous layer's output, read back raw into a buffer of ``ws`` from the
    :meth:`RowFile.spill` file it went to, its rows checked finite before
    they were written. :meth:`~resvd.model.Layer.steps` writes every output
    into ``ws``, so the pass holds two block buffers whatever the depth and
    the row count, plus the scratch pair for the entries within a layer and
    silu's sigmoid. Each block adds its inputs' :func:`gram` to the layer's
    tail matrices' sums and its output's squared norm to the layer's, and
    writes that output to the layer's spill, so no array grows with the row
    count ``S``: two spills exist at once, ``S·(W_i + W_{i+1})·8`` bytes for
    outputs ``W_i`` and ``W_{i+1}`` wide. After the last block each matrix
    of a tail layer is passed, in forward order, with the :func:`whiten`
    Cholesky factor ``s`` of its summed Gram matrix and its key
    ``"<layer>/<matrix>"``, to ``factor(w, s, key)``; each Gram matrix is
    dropped once whitened, so one layer's exist at a time, and no factor
    outlives its ``factor`` call. In a run of one block each Gram matrix is
    the one ``x.T @ x`` product and each norm the one dot product
    ``np.linalg.norm`` takes the root of, so the results do not depend on
    the blocks but through rounding. Returns ``factor``'s results keyed in
    forward order, every layer's output norm and the model's output, in the
    last spill, which goes once the caller drops it.

    Raises:
        OSError: naming the file, when it cannot be made, written or read back.
        DimensionError: when the calibration width is not the model's.
        NumericalError: naming the first fault in forward order, each layer's
            found before the next layer runs: a matrix whose output overflows
            float64 in any block, before an activation could hide it, or a
            layer whose output is all zeros, before any later input is
            whitened: the layers have no bias, so every later output is zero
            too and no relative error is defined.
        SingularWhiteningError: naming the first tail matrix whose input
            cannot be whitened, unless a fault above comes before it.
    """
    if calib.input_dim != model.input_dim:
        raise DimensionError(
            f"calibration width {calib.input_dim} != input width "
            f"{model.input_dim} of layer {model.layers[0].name!r}"
        )
    split = model.n_layers - tail
    factored: dict[str, T] = {}
    norms = []
    source = None  # the previous layer's spill; the first layer reads the calibration rows
    for i, layer in enumerate(model.layers):
        spill = RowFile.spill("the model output")
        grams: dict[int, np.ndarray] = {}
        bad, square = len(layer.entries), 0.0  # bad: the first entry that overflows in any block
        for rows in ws.blocks:
            if source is None:
                h = calib.block(rows, ws)
            else:
                h = ws.free(rows.stop - rows.start, source.shape[1])
                at = source.offset + rows.start * h.shape[1] * 8
                for _ in source.pieces(memoryview(h).cast("B"), at, at + h.nbytes):
                    pass
                if sys.byteorder == "big":
                    h.byteswap(inplace=True)
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
                factored[key] = factor(entry.dense, s, key)
        if square == 0.0:
            raise NumericalError(f"{layer.name}: output is all zeros on the calibration set, "
                                 "so the model outputs nothing to compress against")
        norms.append(math.sqrt(square))
        source = spill  # the previous spill is dropped, so closed
    return factored, tuple(norms), source
