"""Calibrated states and the scans run on them, kept so that each (model, calibration) pair
is calibrated once, and scanned once per ratio, beta and step.

:func:`resvd.planner.calibrate`'s pass depends on the model and the
calibration rows alone, never on a ratio, beta, step or output dtype. An
entry holds what the pass returns: each layer's reference norm, ``U`` and
sigma of each whitened matrix of the last ``T`` layers, and the model's
output rows. It lives in :func:`resvd.containers.cache_dir` beside the CSV
entries, named by the sha256 :func:`key` of everything the pass reads or
that can change its bits: this package's source files, the numpy version,
the BLAS thread and kernel settings, the CPU count and identity, every
layer, the row blocks and the calibration rows in use. So two checkouts,
two thread counts or two kinds of CPU never read each other's entries.

An entry is a header, :data:`HEADER`, then little-endian float64: the
``N`` reference norms; ``U`` (``m x p``, row-major) then sigma (``p``) of
each matrix of the last ``T`` layers in forward order; the ``S x W`` output
rows. The header holds the magic ``ERCS``, :data:`VERSION`, ``T``, ``S``,
``W`` and the sha256 of the header's other fields and the payload, so an
entry of the wrong size or with any byte changed is a miss. A hit reads the
norms and the ``U`` and sigma of the tail asked for into arrays, and the
scan reads the output rows block by block from the entry, so it needs no
spill under ``TMPDIR``.

Beside a state, a plan entry keeps what :func:`resvd.planner.plan`'s scan
found on it for one ratio, beta and step, which is all the scan reads
besides the state's inputs. It is named by :func:`plan_entry` and holds a
header, :data:`PLAN_HEADER` (the magic ``ERCP``, :data:`PLAN_VERSION`, the
table's byte count and the sha256 of those and the payload), then the
candidate table and the winning ``k`` as UTF-8 JSON with floats as
``float.hex``, then ``u_hat`` and ``v_hat`` of each matrix of the
winner's last ``k`` layers in forward order, little-endian float64. A
plan that hits runs no pass, no factoring and no trial.

At most :data:`MAX_ENTRIES` states and :data:`MAX_PLANS` plans are kept,
dropped oldest by mtime first, and a hit renews its entry's; a state of
more than :data:`MAX_BYTES` is neither looked up nor written, so it costs
no key, and neither is a plan beside it, nor one over that bound itself.
Eviction of either kind never touches the other or a CSV entry, and
deleting the directory is always safe. The cache never fails a run: a home
that does not resolve, a directory that cannot be written, a damaged entry
or a race with another writer each mean calibrating and scanning as if
there were no cache.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import struct
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .calibration import CalibrationSet, RowFile
from .compensation import WhitenedWeight
from .containers import cache_dir, evict
from .errors import CompressionError, FormatError
from .linalg import FactorPair, as_matrix
from .model import Layer, MatrixEntry, SequentialModel, Workspace
from .planner import CandidateResult, CompressionPlan, PlannerConfig

MAX_ENTRIES = 4
MAX_BYTES = 64 << 20

MAGIC = b"ERCS"
VERSION = 1
# magic, version, tail T, rows S, width W; then the sha256 of those and the payload
_FIELDS = struct.Struct("<4sIIQQ")
HEADER = struct.Struct(_FIELDS.format + "32s")
_SUFFIXES = (".ercs", ".ercs-tmp")  # an entry's, a temporary file's

MAX_PLANS = 8
PLAN_MAGIC = b"ERCP"
PLAN_VERSION = 1
# magic, version, the table's byte count; then the sha256 of those and the payload
_PLAN_FIELDS = struct.Struct("<4sIQ")
PLAN_HEADER = struct.Struct(_PLAN_FIELDS.format + "32s")
_PLAN_SUFFIXES = (".ercp", ".ercp-tmp")

# The BLAS reads these to pick its thread count and kernels, which can change a product's bits.
BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "OPENBLAS_CORETYPE")
# The fields of a CPU's /proc/cpuinfo block that name it and its features, on x86 and on Arm;
# a BLAS picks its kernels by them.
CPU_FIELDS = ("vendor_id", "cpu family", "model", "model name", "stepping", "flags",
              "CPU implementer", "CPU architecture", "CPU variant", "CPU part", "Features")

Parts = tuple[dict[str, WhitenedWeight], tuple[float, ...], RowFile]
Found = tuple[int, tuple[CandidateResult, ...], dict[str, FactorPair]]


def _sources() -> Iterator[tuple[str, bytes]]:
    """Each source file of this package, by name, with its bytes."""
    for path in sorted(Path(__file__).parent.glob("*.py")):
        yield path.name, path.read_bytes()


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _cpu() -> list[str]:
    """The machine's architecture and its first CPU's :data:`CPU_FIELDS`, where the system
    lists them."""
    lines = [f"machine {os.uname().machine}"]
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if not line.strip():  # the first CPU's block ends
                break
            field, _, value = line.partition(":")
            if field.strip() in CPU_FIELDS:
                lines.append(f"cpu {field.strip()}: {value.strip()}")
    return lines


def _bytes(a: np.ndarray) -> memoryview:
    return memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B")


def key(model: SequentialModel, calib: CalibrationSet, ws: Workspace) -> str | None:
    """The sha256 naming the state of ``model`` on ``calib`` in the blocks of ``ws``; None when
    a source file cannot be read.

    The rows are read block by block, as the pass reads them, so a file
    that ends early fails here with the pass's message.
    """
    digest = hashlib.sha256()
    try:
        for name, data in _sources():
            digest.update(f"source {name} {len(data)}\n".encode())
            digest.update(data)
    except OSError:
        return None
    settings = [f"numpy {np.__version__}", f"cpus {_cpus()}", *_cpu(),
                *(f"{var}={os.environ.get(var)!r}" for var in BLAS_SETTINGS)]
    digest.update("".join(f"{line}\n" for line in settings).encode())
    for layer in model.layers:
        digest.update(f"layer {layer.name} {layer.activation}\n".encode())
        for e in layer.entries:
            for a in (e.dense,) if e.factors is None else (e.factors.u_hat, e.factors.v_hat):
                digest.update(f"matrix {e.name} {a.shape}\n".encode())
                digest.update(_bytes(a))
    digest.update(f"rows {calib.num_samples}x{calib.input_dim} in blocks of {ws.rows}\n".encode())
    for rows in ws.blocks:
        digest.update(_bytes(calib.block(rows, ws)))
    return digest.hexdigest()


def entry_for(model: SequentialModel, calib: CalibrationSet, k: int,
              ws: Workspace) -> Path | None:
    """Where the state of the last ``k`` layers of ``model`` on ``calib`` lives, its directory
    made; None when no home resolves, the directory cannot be made, the calibration is not as
    wide as the model's input (the pass names that) or the state is over :data:`MAX_BYTES`,
    before any key is hashed: no such state is ever read or written, so a key would only read
    the rows once more."""
    directory = cache_dir()
    if directory is None or calib.input_dim != model.input_dim \
            or HEADER.size + 8 * _floats(model, k, calib.num_samples) > MAX_BYTES:
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:  # say, a regular file on the way
        return None
    digest = key(model, calib, ws)
    return None if digest is None else directory / f"state-{digest}.ercs"


def _tail(model: SequentialModel, tail: int) -> Iterator[tuple[int, Layer, MatrixEntry]]:
    for i in range(model.n_layers - tail, model.n_layers):
        for e in model.layers[i].entries:
            yield i, model.layers[i], e


def _floats(model: SequentialModel, tail: int, rows: int) -> int:
    """How many float64 values the payload of a ``tail``-layer state of ``rows`` rows holds."""
    matrices = sum((e.rows + 1) * min(e.rows, e.cols) for _, _, e in _tail(model, tail))
    return model.n_layers + matrices + rows * model.layers[-1].output_dim


def load(entry: Path | None, model: SequentialModel, k: int, ws: Workspace) -> Parts | None:
    """The whitened matrices of the last ``k`` layers, the norms and the output the entry
    holds, as :func:`~resvd.calibration.capture_activations` returns them; None when it
    holds none that covers ``k``, or none at all."""
    if entry is None:
        return None
    try:
        fd = os.open(entry, os.O_RDONLY)
    except OSError:
        return None
    output = RowFile(entry, fd, 0, (0, 0))  # owns fd from here on
    try:
        parts = _read(output, model, k, ws)
    except OSError:  # removed, cut short or unreadable: calibrate
        parts = None
    if parts is None:
        output.close()
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # a hit is a use, so eviction spares it longest
    return parts


def _read(output: RowFile, model: SequentialModel, k: int, ws: Workspace) -> Parts | None:
    """:func:`load`'s parts from the entry open in ``output``, pointing ``output`` at its rows.

    The header is checked first; then the whole payload is read once, the
    norms and the last ``k`` layers' ``U`` and sigma into arrays, the rest
    through one of ``ws``'s free buffers, and all of it hashed.
    """
    fd = output._fd
    head = os.pread(fd, HEADER.size, 0)
    if len(head) != HEADER.size:
        return None
    magic, version, tail, rows, width, want = HEADER.unpack(head)
    if (magic, version) != (MAGIC, VERSION) or not k <= tail <= model.n_layers \
            or width != model.layers[-1].output_dim \
            or os.fstat(fd).st_size != HEADER.size + 8 * _floats(model, tail, rows):
        return None
    digest = hashlib.sha256(head[: _FIELDS.size])
    scratch = memoryview(ws.free(ws.rows, width)).cast("B")
    norms = np.empty(model.n_layers)
    at = _read_into(fd, norms, HEADER.size, digest)
    whitened = {}
    for i, layer, e in _tail(model, tail):
        m, p = e.rows, min(e.rows, e.cols)
        if i < model.n_layers - k:  # a layer the caller does not ask for
            at = _skip(fd, 8 * (m + 1) * p, at, scratch, digest)
            continue
        u, sigma = np.empty((m, p)), np.empty(p)
        at = _read_into(fd, sigma, _read_into(fd, u, at, digest), digest)
        name = f"{layer.name}/{e.name}"
        whitened[name] = WhitenedWeight(as_matrix(e.dense, name), u, sigma)
    output.offset, output.shape = at, (rows, width)
    _skip(fd, 8 * rows * width, at, scratch, digest)
    if digest.digest() != want:
        return None
    return whitened, tuple(float(v) for v in norms), output


def _read_into(fd: int, out: np.ndarray, at: int, digest) -> int:
    """Fill ``out`` from byte ``at`` of ``fd`` and hash what was read; where it ends."""
    view = memoryview(out).cast("B")
    at = _fill(fd, view, at)
    digest.update(view)
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    return at


def _skip(fd: int, nbytes: int, at: int, scratch: memoryview, digest) -> int:
    """Hash ``nbytes`` from byte ``at`` of ``fd``, read through ``scratch``; where they end."""
    end = at + nbytes
    while at < end:
        view = scratch[: min(len(scratch), end - at)]
        at = _fill(fd, view, at)
        digest.update(view)
    return end


def _fill(fd: int, view: memoryview, at: int) -> int:
    while view:
        n = os.preadv(fd, [view], at)
        if n == 0:
            raise OSError(errno.EIO, "cache entry ends early")
        view, at = view[n:], at + n
    return at


def save(entry: Path | None, tail: int, parts: Parts, ws: Workspace) -> None:
    """Write the parts a pass over the blocks of ``ws`` returned for the last ``tail`` layers
    as the entry at ``entry``, which :func:`entry_for` gave only for a state within
    :data:`MAX_BYTES`. The output rows are copied from ``output`` a block at a time through a
    free buffer of ``ws``."""
    if entry is None:
        return
    whitened, norms, output = parts
    rows, width = output.shape

    def write(fd: int) -> bytes:
        fields = _FIELDS.pack(MAGIC, VERSION, tail, rows, width)
        digest = hashlib.sha256(fields)
        at = _write(fd, _bytes(np.array(norms)), HEADER.size, digest)
        for weight in whitened.values():
            at = _write(fd, _bytes(weight.sigma), _write(fd, _bytes(weight.u), at, digest), digest)
        for block in ws.blocks:
            n = block.stop - block.start
            at = _write(fd, _bytes(output.read(block.start, ws.free(n, width))), at, digest)
        return fields + digest.digest()

    _publish(entry, _SUFFIXES, MAX_ENTRIES, write)


def _publish(entry: Path, suffixes: tuple[str, str], keep: int,
             write: Callable[[int], bytes]) -> None:
    """Make the file ``entry``: ``write(fd)`` writes the payload of a file under a temporary
    name and returns its header, written last at byte 0, and the file is then renamed, so
    readers see no part of one. Then only the newest ``keep`` files of ``suffixes`` are kept.
    A failure leaves no file behind and fails nothing: the cache only saves time."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(suffix=suffixes[1], dir=entry.parent)
        try:
            os.pwrite(fd, write(fd), 0)
        finally:
            os.close(fd)
        os.replace(tmp, entry)
        tmp = None
        evict(entry.parent, suffixes, keep)
    except (OSError, FormatError):
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _write(fd: int, view: bytes | memoryview, at: int, digest) -> int:
    """Write ``view`` from byte ``at`` and hash it; where it ends."""
    view = memoryview(view)
    digest.update(view)
    while view:
        n = os.pwrite(fd, view, at)
        view, at = view[n:], at + n
    return at


def plan_entry(state: Path | None, cfg: PlannerConfig) -> Path | None:
    """Where the scan's result for ``cfg`` on the state named ``state`` lives; None when no
    state entry is named, so a plan is kept only beside a state that could be."""
    if state is None:
        return None
    name = (f"{state.name}\nplan {PLAN_VERSION}\nratio {cfg.overall_ratio.hex()} "
            f"beta {cfg.beta.hex()} step {cfg.step}\n")
    return state.parent / f"plan-{hashlib.sha256(name.encode()).hexdigest()}.ercp"


def load_plan(entry: Path | None, model: SequentialModel) -> Found | None:
    """The winning ``k``, the candidate table and each factor pair of the winner's last ``k``
    layers, keyed ``"<layer>/<matrix>"``, that the entry holds for ``model``; None when it
    holds none."""
    if entry is None:
        return None
    try:
        with open(entry, "rb") as fh:
            if os.fstat(fh.fileno()).st_size > MAX_BYTES:  # never written so: read none of it
                return None
            data = fh.read()
    except OSError:  # missing, a directory or unreadable: scan
        return None
    if len(data) < PLAN_HEADER.size:
        return None
    magic, version, size, want = PLAN_HEADER.unpack_from(data)
    digest = hashlib.sha256(data[: _PLAN_FIELDS.size])
    digest.update(memoryview(data)[PLAN_HEADER.size :])
    if (magic, version) != (PLAN_MAGIC, PLAN_VERSION) or digest.digest() != want:
        return None
    at = PLAN_HEADER.size + size
    try:
        doc = json.loads(data[PLAN_HEADER.size : at])
        k = doc["k"]
        table = tuple(CandidateResult(k=int(c), layer_ratio=float.fromhex(ratio),
                                      final_error=float.fromhex(error), status=status,
                                      reason=reason)
                      for c, ratio, error, status, reason in doc["candidates"])
        if not 1 <= k < model.n_layers or (k, "ok") not in {(row.k, row.status) for row in table}:
            return None
        pairs = {}
        for (_, layer, e), r in zip(_tail(model, k), doc["ranks"], strict=True):
            u, at = _array(data, at, (e.rows, r))
            v, at = _array(data, at, (r, e.cols))
            pairs[f"{layer.name}/{e.name}"] = FactorPair(u_hat=u, v_hat=v)
    except (ValueError, KeyError, TypeError, CompressionError):  # not this version's table
        return None
    if at != len(data):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # a hit is a use, so eviction spares it longest
    return k, table, pairs


def _array(data: bytes, at: int, shape: tuple[int, int]) -> tuple[np.ndarray, int]:
    """The little-endian float64 array of ``shape`` at byte ``at`` of ``data``, as a native
    array of its own; where it ends."""
    count = shape[0] * shape[1]
    a = np.frombuffer(data, dtype="<f8", count=count, offset=at)
    return a.astype(np.float64).reshape(shape), at + 8 * count


def save_plan(entry: Path | None, chosen: CompressionPlan) -> None:
    """Keep ``chosen``'s table and the factor pairs of its winner's last ``k`` layers as the
    entry at ``entry``, unless the entry would be over :data:`MAX_BYTES`."""
    if entry is None:
        return
    pairs = [e.factors for layer in chosen.compressed.layers[-chosen.k :] for e in layer.entries]
    table = json.dumps({
        "k": chosen.k,
        "candidates": [[row.k, row.layer_ratio.hex(), row.final_error.hex(), row.status,
                        row.reason] for row in chosen.candidate_table],
        "ranks": [pair.rank for pair in pairs],
    }).encode()
    if PLAN_HEADER.size + len(table) + 8 * sum(p.u_hat.size + p.v_hat.size for p in pairs) \
            > MAX_BYTES:
        return

    def write(fd: int) -> bytes:
        fields = _PLAN_FIELDS.pack(PLAN_MAGIC, PLAN_VERSION, len(table))
        digest = hashlib.sha256(fields)
        at = _write(fd, table, PLAN_HEADER.size, digest)
        for pair in pairs:
            at = _write(fd, _bytes(pair.v_hat), _write(fd, _bytes(pair.u_hat), at, digest), digest)
        return fields + digest.digest()

    _publish(entry, _PLAN_SUFFIXES, MAX_PLANS, write)
