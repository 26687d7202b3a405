"""On-disk formats.

A model is a directory: ``manifest.json`` describing layers plus one raw
tensor file per matrix entry (little-endian, row-major; factored entries
store u_hat then v_hat back to back). Calibration sets are either the
binary container (magic ``ERCC``) or bare numeric CSV. Plans and error
reports are deterministic JSON and CSV. Loaded calibration rows are
read-only, whichever reader built them, and a CSV is parsed only the first
time it is loaded (see :mod:`resvd.csv_cache`).

Tensors are float64 in memory whatever their file holds. The writer takes
the precision of every tensor file as its ``dtype`` argument, so a model
loaded from f32 files and saved with ``dtype="f32"`` is byte-identical.
"""

from __future__ import annotations

import io
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from .calibration import CalibrationSet
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
        doc = json.loads(path.read_text())
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
        for e in layer.entries:
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
                raise NumericalError(f"{layer.name}/{e.name}: a value overflows "
                                     f"{dtype} and cannot be stored")
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


def save_calibration(calib: CalibrationSet, path: str | Path) -> None:
    """Binary container: ERCC magic, version, rows, cols, then f64 payload."""
    samples = np.ascontiguousarray(calib.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_CALIB_HEADER.pack(CALIB_MAGIC, CALIB_VERSION, *samples.shape))
        fh.write(samples.data)  # the payload straight from the array, not a copy of it


def _read_only(samples: np.ndarray) -> CalibrationSet:
    calib = CalibrationSet(samples=samples)
    calib.samples.flags.writeable = False
    return calib


def load_calibration(path: str | Path) -> CalibrationSet:
    """Read an ERCC container; its rows are a read-only view of the file's bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < _CALIB_HEADER.size:
        raise FormatError(f"{path}: too short for a calibration header")
    magic, version, rows, cols = _CALIB_HEADER.unpack_from(raw)
    if magic != CALIB_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CALIB_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    want, payload = rows * cols * 8, len(raw) - _CALIB_HEADER.size
    if payload != want:
        raise FormatError(f"{path}: payload is {payload} bytes, expected {want}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: empty calibration set")
    samples = np.frombuffer(raw, dtype="<f8", offset=_CALIB_HEADER.size).reshape(rows, cols)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: row {bad[0] + 1} holds a non-finite value")
    return _read_only(samples)


def save_calibration_csv(calib: CalibrationSet, path: str | Path) -> None:
    with open(path, "w") as fh:  # a file object, so a ".gz" name is never gzipped
        np.savetxt(fh, calib.samples, fmt="%.17g", delimiter=",")


# The bytes on which np.loadtxt and the line loop provably agree: printable
# ASCII, tab and the newline characters. Other control characters and
# non-ASCII separators end a line for str.splitlines (\x0c, \u2028) or are
# stripped by loadtxt but not by float() (\x1f), so loadtxt reads "1\x0c,2"
# as one row where the line loop sees two lines and rejects them.
_CSV_FAST_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def load_calibration_csv(path: str | Path) -> CalibrationSet:
    """Parse a bare numeric CSV at C speed, falling back to a line loop for diagnostics.

    The fast path takes only what the line loop would accept to the same
    array; for anything else (a parse error, no rows, a non-finite value,
    an unusual byte) the line loop decides, so every accepted file loads
    the same and every rejected one gives the same one-line message. A file
    parsed before is read back from :mod:`resvd.csv_cache`, found by the
    sha256 of its bytes alone. A miss reads the file once more and parses
    exactly the bytes it read, cached under their own sha256, so an entry
    always holds the rows of the bytes its name hashes, even when the file
    changes between the two reads. Only a successful parse is cached.
    """
    from . import csv_cache  # only a CSV load compiles and runs the cache

    calib = csv_cache.load(csv_cache.entry_for(_sha256(path)))
    if calib is None:
        raw = Path(path).read_bytes()
        samples = _load_csv_fast(raw) if _is_plain(raw) else None
        if samples is None:
            samples = _load_csv_lines(path, raw)
        calib = _read_only(samples)
        csv_cache.store(calib, csv_cache.entry_for(_sha256(raw)))
    return calib


def _sha256(source: str | Path | bytes) -> str:
    """The sha256 of ``source``'s bytes, or of the file at ``source``, read in chunks."""
    import hashlib  # here, so only a CSV load maps OpenSSL

    if isinstance(source, bytes):
        return hashlib.sha256(source).hexdigest()
    digest = hashlib.sha256()
    with open(source, "rb") as fh:  # in chunks, so a cache hit holds no copy of the file
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _is_plain(raw: bytes) -> bool:
    """Whether every byte of ``raw`` is one of ``_CSV_FAST_BYTES``."""
    return not raw.translate(None, _CSV_FAST_BYTES)


def _load_csv_fast(raw: bytes) -> np.ndarray | None:
    """``np.loadtxt``'s array for the CSV bytes ``raw``, or None where the line loop must decide.

    Only for bytes :func:`_is_plain` accepts. Split into lines as
    a text-mode read splits them, they parse as the file itself would.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            samples = np.loadtxt(raw.splitlines(), delimiter=",", ndmin=2, comments=None,
                                 dtype=np.float64)
    except (ValueError, Warning):  # whatever loadtxt rejects or warns about, the line loop decides
        return None
    return samples if np.isfinite(samples).all() else None


def _load_csv_lines(path: str | Path, raw: bytes) -> np.ndarray:
    """The CSV bytes ``raw`` of ``path`` parsed line by line; diagnostics name ``path`` and a line."""
    rows: list[list[float]] = []
    line_numbers: list[int] = []
    try:  # decoded as a text-mode read of the file decodes it
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: neither an ERCC container nor a text CSV ({exc})") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: not numeric ({exc})") from exc
        if rows and len(row) != len(rows[0]):
            raise FormatError(f"{path}:{ln}: expected {len(rows[0])} columns, got {len(row)}")
        rows.append(row)
        line_numbers.append(ln)
    if not rows:
        raise FormatError(f"{path}: no samples")
    samples = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}:{line_numbers[bad[0]]}: non-finite value")
    return samples


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


def save_plan(
    plan: CompressionPlan,
    path: str | Path,
    tool: dict | None = None,
    config: dict | None = None,
) -> None:
    """Deterministic JSON. Failed candidates carry null for final_error."""
    doc = {
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
    Path(path).write_text(_dump_json(doc))


def load_plan(path: str | Path) -> CompressionPlan:
    doc = _load_json(Path(path), PLAN_FORMAT, PLAN_VERSION)
    where = str(path)
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


def load_error_report(path: str | Path) -> list[float]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != ERROR_CSV_HEADER:
        raise FormatError(f"{path}: missing header {ERROR_CSV_HEADER!r}")
    out: list[float] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{ln}: expected 2 columns")
        try:
            idx, val = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: not numeric ({exc})") from exc
        if idx != len(out) + 1:
            raise FormatError(f"{path}:{ln}: layer_index {idx} out of order")
        out.append(val)
    if not out:
        raise FormatError(f"{path}: no data rows")
    return out
