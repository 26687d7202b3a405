"""Calibrated states and the scans run on them, kept so that each (model, calibration) pair
is calibrated once, and scanned once per ratio, beta and step.

:func:`resvd.planner.calibrate`'s pass depends on the model and the
calibration rows alone, never on a ratio, beta, step or output dtype. It
writes the :class:`~resvd.calibration.CalibratedModel` it returns into a
temporary file in a state entry's layout, which :func:`save` copies raw
into an entry, and a hit returns the state kept in the entry. It lives in
:func:`resvd.containers.cache_dir` beside the CSV entries, named by the
sha256 :func:`key` of everything the pass reads or that can change its
bits: this package's source files, the numpy version, the BLAS thread and
kernel settings, the CPU count and identity, every layer, the row blocks
and the calibration rows in use. So two checkouts, two thread counts or two
kinds of CPU never read each other's entries. Beside a state, a plan entry
(:func:`plan_entry`) keeps what :func:`resvd.planner.plan`'s scan found on
it for one ratio, beta and step, so a plan that hits runs no pass, no
factoring and no trial.

Both kinds are cache entries (see :mod:`resvd.containers`). A state's
descriptor is ``{"tail": T, "shapes": ...}``; its arrays are the ``N``
reference norms, ``U`` then sigma of each matrix of ``tail_entries(T)``,
and the ``S x W`` output rows. A plan's is the ``plan.json`` document
(:func:`resvd.containers.plan_document`), whose JSON gives each float back
bit for bit, plus ``"shapes"``; its arrays are ``u_hat`` then ``v_hat`` of
each matrix of the winner's ``tail_entries(k)``. Each kind's writer and
reader walk :meth:`~resvd.model.SequentialModel.tail_entries`, so they
agree on the order by construction. An entry with any byte changed is a
miss before its descriptor is parsed, and one whose shapes are not those
the model implies is a miss before any array is allocated. A state hit
reads only the norms: the scan reads each matrix's ``U`` and sigma when a
trial factors it, and the output rows block by block, from the entry, as a
cold run reads them from the pass's file, so a hit needs no file under
``TMPDIR``.

At most :data:`MAX_ENTRIES` states and :data:`MAX_PLANS` plans are kept,
dropped oldest by mtime first, and a hit renews its entry's; a state of
more than :data:`MAX_BYTES` is neither looked up nor written, so it costs
no key, and neither is a plan beside it, nor one over that bound itself.
That bound is on what is published alone: a larger state still runs, from
its temporary file.
Eviction of either kind never touches the other or a CSV entry, and
deleting the directory is always safe. The cache never fails a run: a home
that does not resolve, a directory that cannot be written, a damaged entry
or a race with another writer each mean calibrating and scanning as if
there were no cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from .calibration import CalibratedModel, CalibrationSet, state_shapes
from .containers import (ENTRY_VERSION, cache_dir, entry_size, f64_bytes, plan_document,
                         plan_from_document, publish_entry, read_entry)
from .errors import FormatError
from .linalg import FactorPair
from .model import SequentialModel, Workspace
from .planner import CandidateResult, CompressionPlan, PlannerConfig

MAX_ENTRIES = 4
MAX_PLANS = 8
MAX_BYTES = 64 << 20

# The BLAS reads these to pick its thread count and kernels, which can change a product's bits.
BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "OPENBLAS_CORETYPE")
# The fields of a CPU's /proc/cpuinfo block that name it and its features, on x86 and on Arm;
# a BLAS picks its kernels by them.
CPU_FIELDS = ("vendor_id", "cpu family", "model", "model name", "stepping", "flags",
              "CPU implementer", "CPU architecture", "CPU variant", "CPU part", "Features")

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
                digest.update(f64_bytes(a))
    digest.update(f"rows {calib.num_samples}x{calib.input_dim} in blocks of {ws.rows}\n".encode())
    for rows in ws.blocks:
        digest.update(f64_bytes(calib.block(rows, ws)))
    return digest.hexdigest()


def entry_for(model: SequentialModel, calib: CalibrationSet, k: int,
              ws: Workspace) -> Path | None:
    """Where the state of the last ``k`` layers of ``model`` on ``calib`` lives, its directory
    made; None when no home resolves, the directory cannot be made, the calibration is not as
    wide as the model's input (the pass names that) or the state is over :data:`MAX_BYTES`,
    before any key is hashed: no such state is ever read or written, so a key would only read
    the rows once more."""
    directory = cache_dir()
    if directory is None or calib.input_dim != model.input_dim or entry_size(
            {"tail": k, "shapes": state_shapes(model, k, calib.num_samples)}) > MAX_BYTES:
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:  # say, a regular file on the way
        return None
    digest = key(model, calib, ws)
    return None if digest is None else directory / f"state-{digest}.ercs"


def load(entry: Path | None, model: SequentialModel, k: int,
         ws: Workspace) -> CalibratedModel | None:
    """The state of ``model``'s last ``k`` layers the entry holds, as
    :func:`~resvd.calibration.capture_activations` returned it to :func:`save`, kept in the
    entry itself: only its norms are read here; None when it holds none that covers ``k``, or
    none at all."""
    found = read_entry(entry, MAX_BYTES)
    if found is None:
        return None
    file, doc, at = found
    tail, shapes = doc.get("tail"), doc["shapes"]
    if type(tail) is not int or not k <= tail <= model.n_layers \
            or shapes != state_shapes(model, tail, ws.blocks[-1].stop):
        return None
    file.offset, file.shape = at[-1], tuple(shapes[-1])
    norms = tuple(float(v) for v in file.array(at[0], shapes[0]))
    return CalibratedModel.in_file(model, k, at, norms, file)


def save(entry: Path | None, state: CalibratedModel, ws: Workspace) -> None:
    """Copy the file of ``state``, as a pass over the blocks of ``ws`` returned it, raw into the
    entry at ``entry``, which :func:`entry_for` gave only for a state within :data:`MAX_BYTES`,
    a block at a time through a free buffer of ``ws``. The file is in the entry's layout
    already; the descriptor's shapes are :func:`~resvd.calibration.state_shapes`', which sized
    the entry and which :func:`load` checks."""
    if entry is None:
        return
    file, tail = state.output, state.tail
    buf = memoryview(ws.free(ws.rows, file.shape[1])).cast("B")
    doc = {"tail": tail, "shapes": state_shapes(state.model, tail, file.shape[0])}
    publish_entry(entry, doc, file.pieces(buf, 0, file.offset + 8 * math.prod(file.shape)),
                  MAX_ENTRIES, MAX_BYTES)


def plan_entry(state: Path | None, cfg: PlannerConfig) -> Path | None:
    """Where the scan's result for ``cfg`` on the state named ``state`` lives; None when no
    state entry is named, so a plan is kept only beside a state that could be."""
    if state is None:
        return None
    name = (f"{state.name}\nplan {ENTRY_VERSION}\nratio {cfg.overall_ratio.hex()} "
            f"beta {cfg.beta.hex()} step {cfg.step}\n")
    return state.parent / f"plan-{hashlib.sha256(name.encode()).hexdigest()}.ercp"


def load_plan(entry: Path | None, model: SequentialModel) -> Found | None:
    """The winning ``k``, the candidate table and each factor pair of the winner's last ``k``
    layers, keyed ``"<layer>/<matrix>"``, that the entry holds for ``model``; None when it
    holds none."""
    found = read_entry(entry, MAX_BYTES)
    if found is None:
        return None
    rows, doc, offsets = found
    k, shapes = doc.get("k"), doc["shapes"]
    if type(k) is not int or not 1 <= k < model.n_layers:
        return None
    tail = list(model.tail_entries(k))
    try:  # each pair's rank is the second extent of its u_hat
        ranks = [u[1] for u in shapes[::2]]
    except (KeyError, TypeError, IndexError):
        return None
    if len(ranks) != len(tail) or not all(
            type(r) is int and 1 <= r <= min(e.rows, e.cols) for (_, e), r in zip(tail, ranks)) \
            or shapes != [s for (_, e), r in zip(tail, ranks) for s in ([e.rows, r], [r, e.cols])]:
        return None
    try:
        chosen = plan_from_document(doc, str(entry))
    except FormatError:
        return None
    if (chosen.k, "ok") not in {(row.k, row.status) for row in chosen.candidate_table}:
        return None
    arrays = [rows.array(at, shape) for at, shape in zip(offsets, shapes)]
    pairs = {key: FactorPair(u_hat=u, v_hat=v)
             for (key, _), u, v in zip(tail, arrays[::2], arrays[1::2])}
    return chosen.k, chosen.candidate_table, pairs


def save_plan(entry: Path | None, chosen: CompressionPlan) -> None:
    """Keep ``chosen``'s table and the factor pairs of its winner's last ``k`` layers as the
    entry at ``entry``, unless the entry would be over :data:`MAX_BYTES`."""
    if entry is None:
        return
    arrays = [a for _, e in chosen.compressed.tail_entries(chosen.k)
              for a in (e.factors.u_hat, e.factors.v_hat)]
    publish_entry(entry, {**plan_document(chosen, None, None),
                          "shapes": [list(a.shape) for a in arrays]}, arrays, MAX_PLANS, MAX_BYTES)
