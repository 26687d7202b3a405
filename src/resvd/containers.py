"""On-disk formats.

A model is a directory: ``manifest.json`` describing layers plus one raw
tensor file per matrix entry (little-endian, row-major; factored entries
store u_hat then v_hat back to back). Calibration sets are either the
binary container (magic ``ERCC``) or bare numeric CSV. Plans and error
reports are deterministic JSON and CSV. A loaded ERCC file is checked and
then read block by block as each pass needs its rows, so no command holds
the calibration set; a CSV is parsed only the first time it is loaded, and
a later load reads the cache entry the parse left (see
:mod:`resvd.csv_cache`). No pass writes calibration rows.

Every cache entry, a parsed CSV's, a calibrated state's or a plan's, has
one layout, written by :func:`publish_entry` and read, its sha256 checked,
by :func:`read_entry` (see :mod:`resvd.csv_cache`, :mod:`resvd.state_cache`).

No input is read through the locale: a CSV is parsed as bytes, lines
ending at ``\n``, and ``manifest.json`` and ``plan.json`` are decoded as
UTF-8, as RFC 8259 requires of JSON. So the same bytes load, or fail with
the same message, on every machine.

Tensors are float64 in memory whatever their file holds. The writer takes
the precision of every tensor file as its ``dtype`` argument, so a model
loaded from f32 files and saved with ``dtype="f32"`` is byte-identical.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .calibration import READ_CHUNK_BYTES, CalibrationSet, RowFile
from .errors import DimensionError, FormatError, NumericalError
from .linalg import FactorPair
from .model import ACTIVATIONS, NAME_RE, Layer, MatrixEntry, SequentialModel
from .planner import CandidateResult, CompressionPlan

MODEL_FORMAT = "resvd-model"
MODEL_VERSION = 1
PLAN_FORMAT = "resvd-plan"
PLAN_VERSION = 1

CALIB_MAGIC = b"ERCC"
CALIB_VERSION = 1
_CALIB_HEADER = struct.Struct("<4sIQQ")

_NP_DTYPE = {"f64": "<f8", "f32": "<f4"}
STORE_DTYPES = tuple(_NP_DTYPE)

ERROR_CSV_HEADER = "layer_index,relative_error"

# The longest CSV token, whitespace around it included, that a parse hands to ``float``; a
# longer one is not numeric. ``float``'s message for a token it rejects is the token's repr, up
# to 4 bytes a byte, so this bounds what a faulty token costs beyond its line.
MAX_TOKEN_BYTES = READ_CHUNK_BYTES // 4


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_float(v: float) -> float | None:
    return None if math.isnan(v) else v


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing key {key!r}")
    return doc[key]


def _require_typed(doc: dict, key: str, where: str,
                   kind: type | tuple[type, ...], what: str):
    """``doc[key]`` when it is a ``kind``; JSON true/false never pass as integers."""
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"{where}: {key} must be {what}, got {value!r}")
    return value


def _load_json(path: Path, fmt: str, version: int) -> dict:
    """The JSON object in ``path``, checked to declare format ``fmt`` at ``version``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))  # RFC 8259: JSON is UTF-8
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: cannot be decoded as text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: must hold a JSON object")
    if _require(doc, "format", str(path)) != fmt:
        raise FormatError(f"{path}: format is {doc['format']!r}, expected {fmt!r}")
    if _require(doc, "version", str(path)) != version:
        raise FormatError(f"{path}: unsupported version {doc['version']!r}")
    return doc


def _require_objects(doc: dict, key: str, where: str) -> list[dict]:
    value = _require(doc, key, where)
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise FormatError(f"{where}: {key} must be a list of objects")
    return value


# --- model directories ---


def save_model(model: SequentialModel, path: str | Path, dtype: str = "f64") -> None:
    """Write ``manifest.json`` plus one tensor file per matrix entry, each in ``dtype``.

    Every tensor is cast to ``dtype`` and checked before anything is
    written, so a model that cannot be stored leaves ``path`` untouched.

    Raises:
        ValueError: when ``dtype`` is not one of :data:`STORE_DTYPES`.
        NumericalError: naming the first matrix holding a value beyond the
            range of ``dtype``.
    """
    if dtype not in STORE_DTYPES:
        raise ValueError(f"dtype must be one of {STORE_DTYPES}, got {dtype!r}")
    layers_doc = []
    tensors: dict[str, list[np.ndarray]] = {}
    for layer in model.layers:
        matrices = []
        for key, e in layer.keyed_entries():
            fname = f"{layer.name}__{e.name}.bin"
            if fname in tensors:
                raise FormatError(f"tensor file name collision: {fname}")
            entry_doc = {"name": e.name, "rows": e.rows, "cols": e.cols, "dtype": dtype,
                         "kind": "factored" if e.is_factored else "dense", "file": fname}
            arrays = (e.dense,)
            if e.is_factored:
                entry_doc["rank"] = e.factors.rank
                arrays = (e.factors.u_hat, e.factors.v_hat)
            with np.errstate(over="ignore"):
                stored = [a.astype(_NP_DTYPE[dtype]) for a in arrays]
            if not all(np.isfinite(a).all() for a in stored):
                raise NumericalError(f"{key}: a value overflows {dtype} and cannot be stored")
            tensors[fname] = stored
            matrices.append(entry_doc)
        layers_doc.append(
            {"name": layer.name, "activation": layer.activation, "matrices": matrices}
        )
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "input_dim": model.input_dim,
        "meta": model.meta,
        "layers": layers_doc,
    }
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for fname, stored in tensors.items():
        (root / fname).write_bytes(b"".join(a.tobytes() for a in stored))
    (root / "manifest.json").write_text(_dump_json(doc))


def _read_tensor(root: Path, entry_doc: dict, where: str, name: str) -> np.ndarray:
    fname = _require(entry_doc, "file", where)
    if not isinstance(fname, str) or not NAME_RE.match(fname):
        raise FormatError(f"{where}: bad tensor file name {fname!r}")
    fpath = root / fname
    if not fpath.is_file():
        raise FormatError(f"{where}: tensor file {fname} is missing")
    blob, dtype = fpath.read_bytes(), np.dtype(_NP_DTYPE[entry_doc["dtype"]])
    if len(blob) % dtype.itemsize:
        raise FormatError(f"{where}: tensor file {fname} of matrix {name!r} holds "
                          f"{len(blob)} bytes, not a whole number of {dtype.itemsize}-byte values")
    flat = np.frombuffer(blob, dtype=dtype)
    if not np.isfinite(flat).all():
        raise FormatError(
            f"{where}: tensor file {fname} of matrix {name!r} holds a non-finite value"
        )
    return flat


def _load_entry(root: Path, entry_doc: dict, where: str) -> MatrixEntry:
    name = _require_typed(entry_doc, "name", where, str, "a string")
    rows = _require_typed(entry_doc, "rows", where, int, "an integer")
    cols = _require_typed(entry_doc, "cols", where, int, "an integer")
    dtype = _require(entry_doc, "dtype", where)
    kind = _require(entry_doc, "kind", where)
    if dtype not in STORE_DTYPES:
        raise FormatError(f"{where}: unknown dtype {dtype!r}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{where}: bad shape {rows!r} x {cols!r}")
    flat = _read_tensor(root, entry_doc, where, name)
    if kind == "dense":
        if flat.size != rows * cols:
            raise FormatError(
                f"{where}: expected {rows * cols} values, file holds {flat.size}"
            )
        dense = flat.reshape(rows, cols).astype(np.float64)
        return MatrixEntry(name=name, dense=dense)
    if kind == "factored":
        rank = _require_typed(entry_doc, "rank", where, int, "an integer")
        if not 1 <= rank <= min(rows, cols):
            raise FormatError(f"{where}: bad rank {rank!r} for {rows}x{cols}")
        want = rows * rank + rank * cols
        if flat.size != want:
            raise FormatError(f"{where}: expected {want} values, file holds {flat.size}")
        u_hat = flat[: rows * rank].reshape(rows, rank).astype(np.float64)
        v_hat = flat[rows * rank :].reshape(rank, cols).astype(np.float64)
        return MatrixEntry(name=name, factors=FactorPair(u_hat=u_hat, v_hat=v_hat))
    raise FormatError(f"{where}: unknown kind {kind!r}")


def load_model(path: str | Path) -> SequentialModel:
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"{root}: no manifest.json")
    doc = _load_json(mpath, MODEL_FORMAT, MODEL_VERSION)
    where = str(mpath)
    input_dim = _require_typed(doc, "input_dim", where, int, "an integer")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError(f"{where}: meta must be an object")
    # the model classes re-check names, widths and chains; a manifest that
    # fails them is malformed input, not a compression failure
    try:
        layers = []
        for ldoc in _require_objects(doc, "layers", where):
            lname = _require_typed(ldoc, "name", where, str, "a string")
            activation = _require(ldoc, "activation", where)
            if activation not in ACTIVATIONS:
                raise FormatError(f"{where}: unknown activation {activation!r}")
            entries = tuple(
                _load_entry(root, edoc, f"{where} [{lname}]")
                for edoc in _require_objects(ldoc, "matrices", f"{where} [{lname}]")
            )
            layers.append(Layer(name=lname, entries=entries, activation=activation))
        model = SequentialModel(layers=tuple(layers), meta=meta)
        if model.input_dim != input_dim:
            raise DimensionError(f"model input_dim {input_dim} != first layer width "
                                 f"{model.input_dim}")
        return model
    except (ValueError, DimensionError) as exc:
        raise FormatError(f"{where}: inconsistent model ({exc})") from exc


# --- calibration sets ---


def calib_header(shape: tuple[int, int]) -> bytes:
    """The ERCC header of a calibration set of ``shape`` (rows, cols): magic, version, rows,
    cols. The f64 payload follows it."""
    return _CALIB_HEADER.pack(CALIB_MAGIC, CALIB_VERSION, *shape)


def save_calibration(calib: CalibrationSet, path: str | Path) -> None:
    """Binary container: :func:`calib_header`, then the f64 payload."""
    samples = np.ascontiguousarray(calib.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(calib_header(samples.shape))
        fh.write(samples.data)  # the payload straight from the array, not a copy of it


def load_calibration(path: str | Path) -> CalibrationSet:
    """Check an ERCC container and return a set that reads its rows from the file.

    The header and the file's size are checked, and then every row is
    checked finite, :data:`~resvd.calibration.READ_CHUNK_BYTES` at a time,
    so the check holds no copy of the payload. The set keeps the file open
    by a raw descriptor, closed once no set refers to it, and each pass
    reads the rows of each block from that descriptor
    (:meth:`~resvd.calibration.CalibrationSet.block`), checking them finite
    again. So a file replaced by rename still serves the rows checked here,
    and a file truncated after this check is a one-line ``FormatError``
    naming ``path`` at the first read past its end. A file rewritten in
    place while a command runs is not supported.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        rows = RowFile(path, fd, _CALIB_HEADER.size, _calib_shape(path, fd))
    except BaseException:
        os.close(fd)
        raise
    # from here on, a failure drops ``rows``, which closes the file
    n, cols = rows.shape
    chunk = np.empty((max(1, READ_CHUNK_BYTES // (8 * cols)), cols))
    for start in range(0, n, len(chunk)):
        rows.read(start, chunk[: n - start])
    return CalibrationSet(file=rows)


def _calib_shape(path: str | Path, fd: int) -> tuple[int, int]:
    """The (rows, cols) the ERCC header of the file open at ``fd`` declares and its size holds."""
    header = os.pread(fd, _CALIB_HEADER.size, 0)
    if len(header) < _CALIB_HEADER.size:
        raise FormatError(f"{path}: too short for a calibration header")
    magic, version, rows, cols = _CALIB_HEADER.unpack(header)
    if magic != CALIB_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CALIB_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    want, payload = rows * cols * 8, os.fstat(fd).st_size - _CALIB_HEADER.size
    if payload != want:
        raise FormatError(f"{path}: payload is {payload} bytes, expected {want}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: empty calibration set")
    return rows, cols


def save_calibration_csv(calib: CalibrationSet, path: str | Path) -> None:
    # a file object, so a ".gz" name is never gzipped; ASCII lines ending at
    # "\n" on every platform, as the parser reads them
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        np.savetxt(fh, calib.samples, fmt="%.17g", delimiter=",")


def cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/resvd``, or ``~/.cache/resvd`` when that variable is unset, empty or
    relative; None when no home resolves. :mod:`resvd.csv_cache` and
    :mod:`resvd.state_cache` keep their entries there."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    return Path(base, "resvd")


# --- cache entries ---

# Every cache entry: ENTRY_FIELDS (magic, version, the descriptor's byte count), the sha256 of
# those and all that follows, a UTF-8 JSON descriptor whose "shapes" lists the arrays that
# follow, then those arrays, little-endian float64.
ENTRY_MAGIC = b"ERCS"
ENTRY_VERSION = 2
ENTRY_FIELDS = struct.Struct("<4sIQ")
ENTRY_HEADER = struct.Struct(ENTRY_FIELDS.format + "32s")

Arrays = list[tuple[list[int], bool]]  # each array's shape in an entry, and whether it is read


def f64_bytes(a: np.ndarray) -> memoryview:
    """The bytes of ``a`` as little-endian float64, row-major."""
    return memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B")


def entry_size(doc: dict) -> int:
    """The byte count of the entry of descriptor ``doc``."""
    shapes = doc["shapes"]
    return ENTRY_HEADER.size + len(json.dumps(doc).encode()) + 8 * sum(map(math.prod, shapes))


def read_entry(entry: Path | None, expect: Callable[[dict], Arrays | None], limit: int | None,
               scratch: memoryview | None = None
               ) -> tuple[RowFile, dict, list[np.ndarray | int]] | None:
    """The entry at ``entry`` as a :class:`~resvd.calibration.RowFile` owning its descriptor,
    its JSON descriptor and each of its arrays; None when there is none, or it is not one this
    version wrote whole, is over ``limit`` bytes, or ``expect`` refuses it. A hit renews the
    entry's mtime, so eviction spares it longest.

    ``expect(descriptor)`` gives the shape of each array, with whether to read it, or None. An
    array read is a native float64 array; one not read is the byte offset where it starts, and
    is hashed through ``scratch``. The descriptor's byte count is checked against the file's
    size before it is read, and the shapes and their size before any array is allocated.
    """
    import hashlib  # here, so only a command that uses the cache maps OpenSSL

    if entry is None:
        return None
    try:
        fd = os.open(entry, os.O_RDONLY)
        rows = RowFile(entry, fd, 0, (0, 0))  # owns fd from here on, and closes it on a miss
        head = os.pread(fd, ENTRY_HEADER.size, 0)
        if len(head) != ENTRY_HEADER.size:
            return None
        magic, version, size, want = ENTRY_HEADER.unpack(head)
        end = os.fstat(fd).st_size
        if (magic, version) != (ENTRY_MAGIC, ENTRY_VERSION) or ENTRY_HEADER.size + size > end \
                or limit is not None and end > limit:
            return None
        digest, at = hashlib.sha256(head[: ENTRY_FIELDS.size]), ENTRY_HEADER.size + size
        text = bytearray(size)
        for piece in rows.pieces(memoryview(text), ENTRY_HEADER.size, at):
            digest.update(piece)
        try:
            doc = json.loads(text.decode())
        except ValueError:  # not UTF-8, or not JSON
            return None
        arrays = expect(doc) if isinstance(doc, dict) else None
        if arrays is None or doc.get("shapes") != [shape for shape, _ in arrays] \
                or end != at + 8 * sum(math.prod(shape) for shape, _ in arrays):
            return None
        parts = []
        for shape, read in arrays:
            parts.append(np.empty(shape) if read else at)
            buf = memoryview(parts[-1]).cast("B") if read else scratch
            start, at = at, at + 8 * math.prod(shape)
            for piece in rows.pieces(buf, start, at):
                digest.update(piece)
            if read and sys.byteorder == "big":
                parts[-1].byteswap(inplace=True)
    except OSError:  # missing, a directory, unreadable or cut short
        return None
    if digest.digest() != want:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return rows, doc, parts


def publish_entry(entry: Path, doc: dict, payload: Iterable[np.ndarray | memoryview],
                  keep: int, limit: int | None) -> None:
    """Make the file ``entry`` of descriptor ``doc`` and the ``payload`` that follows it, each
    piece an array (stored as little-endian float64) or raw bytes, unless it is over ``limit``
    bytes: written under a temporary name, its header last at byte 0, and then renamed, so
    readers see no part of one. Then only the newest ``keep`` entries of ``entry``'s suffix, by
    mtime, are kept. A failure leaves no file behind and fails nothing: the cache only saves
    time."""
    import hashlib  # here, so only a command that uses the cache maps OpenSSL

    if limit is not None and entry_size(doc) > limit:
        return
    descriptor = json.dumps(doc).encode()
    suffixes = (entry.suffix, f"{entry.suffix}-tmp")  # an entry's, a temporary file's
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(suffix=suffixes[1], dir=entry.parent)
        try:
            fields = ENTRY_FIELDS.pack(ENTRY_MAGIC, ENTRY_VERSION, len(descriptor))
            digest, at = hashlib.sha256(fields), ENTRY_HEADER.size
            for piece in itertools.chain([descriptor], payload):
                view = f64_bytes(piece) if isinstance(piece, np.ndarray) else memoryview(piece)
                digest.update(view)
                while view:
                    n = os.pwrite(fd, view, at)
                    view, at = view[n:], at + n
            os.pwrite(fd, fields + digest.digest(), 0)
        finally:
            os.close(fd)
        os.replace(tmp, entry)
        tmp = None
        files = []
        for path in entry.parent.iterdir():
            if path.suffix in suffixes:
                with contextlib.suppress(OSError):  # another process may remove it first
                    files.append((path.stat().st_mtime_ns, path))
        for _, path in sorted(files)[:-keep]:
            with contextlib.suppress(OSError):
                path.unlink()
    except OSError:
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_calibration_csv(path: str | Path) -> CalibrationSet:
    """Parse a bare numeric CSV once, into a file every load reads its rows from: a later load
    of the same bytes reads the entry the parse left (:func:`resvd.csv_cache.load`)."""
    from . import csv_cache  # only a CSV load compiles and runs the cache

    return csv_cache.load(path)


def _sha256(path: str | Path) -> tuple[str, int | None]:
    """The sha256 of the file at ``path``, read a block at a time into one buffer, and the
    token count of its first line that holds more than ASCII whitespace, as a parse counts a
    row's; None for the count when no such line ends within the first block."""
    import hashlib  # here, so only a CSV load maps OpenSSL

    digest, block, width = hashlib.sha256(), bytearray(READ_CHUNK_BYTES), None
    with open(path, "rb", buffering=0) as fh:
        n = fh.readinto(block)
        start = 0
        while width is None and (end := block.find(b"\n", start, n)) >= 0:
            if line := block[start:end].strip():
                width = line.count(b",") + 1
            start = end + 1
        while n:
            digest.update(memoryview(block)[:n])
            n = fh.readinto(block)
    return digest.hexdigest(), width


def _not_numeric(toks: list[bytes]) -> str:
    """``float``'s message for the first of ``toks`` that it rejects, that token cut to its
    longest prefix whose repr fits in 40 characters, then "...", so no message is long. A token
    of more than :data:`MAX_TOKEN_BYTES` is rejected unread, with the same wording."""
    for tok in toks:
        try:
            if len(tok) > MAX_TOKEN_BYTES:
                raise ValueError
            float(tok)
        except ValueError:
            keep = next(n for n in range(min(len(tok), 40), -1, -1) if len(repr(tok[:n])) <= 40)
            cut = "..." if keep < len(tok) else ""
            return f"could not convert string to float: {tok[:keep]!r}{cut}"


def _lines(fh) -> Iterator[bytes]:
    """The lines of the binary file ``fh``, each one bytes object: a line of more than
    :data:`READ_CHUNK_BYTES` is measured first and then read whole, where ``readline`` would
    join its chunks into a second copy of it."""
    while line := fh.readline(READ_CHUNK_BYTES):
        if len(line) == READ_CHUNK_BYTES and not line.endswith(b"\n"):
            start, line = fh.tell() - len(line), None
            while (piece := fh.read(READ_CHUNK_BYTES)) and b"\n" not in piece:
                pass
            end = fh.tell() - len(piece) + piece.find(b"\n") + 1 if piece else fh.tell()
            fh.seek(start)
            line = fh.read(end - start)
        yield line


def _parse_csv(path: str | Path, rows: RowFile) -> str:
    """Append the rows of the CSV at ``path`` to ``rows``; the sha256 of the bytes parsed.

    The file is bytes: a line ends at ``\\n``, and each comma-separated
    token is parsed by ``float``, which ignores ASCII whitespace around it,
    ``\\r`` included. A line holding only such whitespace is skipped. The
    parse stops at the first line that is not numeric, has another width
    than the first row or holds a non-finite value, with a one-line message
    naming it; a file with none and no row fails with "no samples". So the
    same bytes give the same rows or the same message whatever the locale.
    The file is read :data:`READ_CHUNK_BYTES` at a time and rows are written
    half that many bytes at a time: beyond its longest line, a parse holds
    less than two of those. No token of more than :data:`MAX_TOKEN_BYTES`
    reaches ``float``, and a line is held once (:func:`_lines`), but a line
    costs memory in proportion to its token count, not its length:
    ``line.split(b",")`` builds every token, a list slot each and a
    ``bytes`` object for each but the empty and one-byte ones that CPython
    shares, before ``float`` sees the first, and each token that parses adds
    a float and another list slot. Under ``tracemalloc`` a faulty 1 MB line
    peaks at 9.4 times its length as commas alone, 5.7 times as ``x,``
    repeated, and 23 and 28 times as ``1,`` and ``10,`` repeated before
    one ``x``.
    """
    import hashlib  # here, so only a CSV load maps OpenSSL

    digest, block, n = hashlib.sha256(), None, 0  # n rows of block are not yet appended
    with open(path, "rb", buffering=READ_CHUNK_BYTES) as fh:
        for ln, raw in enumerate(_lines(fh), start=1):
            digest.update(raw)
            if not (line := raw.strip()):
                continue
            toks = line.split(b",")
            try:  # a line no longer than a token needs no check of its tokens' length
                if len(line) > MAX_TOKEN_BYTES and max(map(len, toks)) > MAX_TOKEN_BYTES:
                    raise ValueError
                row = [float(tok) for tok in toks]
            except ValueError:
                raise FormatError(f"{path}:{ln}: not numeric ({_not_numeric(toks)})") from None
            if block is None:
                block = np.empty((max(1, READ_CHUNK_BYTES // (16 * len(row))), len(row)))
            if len(row) != block.shape[1]:
                raise FormatError(
                    f"{path}:{ln}: expected {block.shape[1]} columns, got {len(row)}")
            if not all(map(math.isfinite, row)):
                raise FormatError(f"{path}:{ln}: non-finite value")
            block[n] = row
            n += 1
            if n == len(block):
                rows.append(block)
                n = 0
    if block is None:
        raise FormatError(f"{path}: no samples")
    if n:
        rows.append(block[:n])
    return digest.hexdigest()


def load_calibration_auto(path: str | Path) -> CalibrationSet:
    """Binary when the file starts with the container magic, CSV otherwise."""
    with open(path, "rb") as fh:
        head = fh.read(len(CALIB_MAGIC))
    if head == CALIB_MAGIC:
        return load_calibration(path)
    return load_calibration_csv(path)


# --- plans ---


def plan_header(plan: CompressionPlan, tool: dict | None, config: dict | None) -> dict:
    """The chosen plan's summary, shared by ``plan.json`` and a compressed manifest's meta."""
    return {
        "tool": tool or {},
        "config": config or {},
        "n_layers": plan.n_layers,
        "overall_ratio": plan.overall_ratio,
        "beta": plan.beta,
        "seed": plan.seed,
        "k": plan.k,
        "layer_ratio": plan.layer_ratio,
        "chosen_error": plan.chosen_error,
    }


def plan_document(plan: CompressionPlan, tool: dict | None, config: dict | None) -> dict:
    """``plan.json``'s document for ``plan``. Failed candidates carry null for final_error."""
    return {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        **plan_header(plan, tool, config),
        "candidates": [
            {
                "k": row.k,
                "layer_ratio": row.layer_ratio,
                "final_error": _json_float(row.final_error),
                "status": row.status,
                "reason": row.reason,
            }
            for row in plan.candidate_table
        ],
    }


def save_plan(
    plan: CompressionPlan,
    path: str | Path,
    tool: dict | None = None,
    config: dict | None = None,
) -> None:
    """Deterministic JSON: :func:`plan_document`."""
    Path(path).write_text(_dump_json(plan_document(plan, tool, config)))


def load_plan(path: str | Path) -> CompressionPlan:
    return plan_from_document(_load_json(Path(path), PLAN_FORMAT, PLAN_VERSION), str(path))


def plan_from_document(doc: dict, where: str) -> CompressionPlan:
    """The plan a :func:`plan_document` holds, each float as it was written; ``where`` names
    the document in a :class:`~resvd.errors.FormatError` for a missing key or a field of the
    wrong type."""
    rows = []
    for i, rdoc in enumerate(_require_objects(doc, "candidates", where)):
        at = f"{where} candidates[{i}]"
        err = _require_typed(rdoc, "final_error", at, (int, float, type(None)),
                             "a number or null")
        rows.append(
            CandidateResult(
                k=_require_typed(rdoc, "k", at, int, "an integer"),
                layer_ratio=_require_typed(rdoc, "layer_ratio", at, (int, float), "a number"),
                final_error=math.nan if err is None else float(err),
                status=_require_typed(rdoc, "status", at, str, "a string"),
                reason=_require_typed(rdoc, "reason", at, str, "a string"),
            )
        )
    return CompressionPlan(
        k=_require_typed(doc, "k", where, int, "an integer"),
        layer_ratio=_require_typed(doc, "layer_ratio", where, (int, float), "a number"),
        candidate_table=tuple(rows),
        chosen_error=_require_typed(doc, "chosen_error", where, (int, float), "a number"),
        n_layers=_require_typed(doc, "n_layers", where, int, "an integer"),
        overall_ratio=_require_typed(doc, "overall_ratio", where, (int, float), "a number"),
        beta=_require_typed(doc, "beta", where, (int, float), "a number"),
        seed=_require_typed(doc, "seed", where, int, "an integer"),
    )


# --- layer error reports ---


def format_error_report(per_layer: tuple[float, ...] | list[float]) -> str:
    """CSV with a fixed header; values keep full precision, nan is legal."""
    lines = [ERROR_CSV_HEADER]
    lines += ["%d,%.17g" % (i, v) for i, v in enumerate(per_layer, start=1)]
    return "\n".join(lines) + "\n"


def save_error_report(per_layer: tuple[float, ...] | list[float], path: str | Path) -> None:
    Path(path).write_text(format_error_report(per_layer))
