"""Calibrated states and the scans run on them, kept so that each (model, calibration) pair
is calibrated once, and scanned once per ratio, beta and step.

:func:`resvd.planner.calibrate`'s pass depends on the model and the
calibration rows alone, never on a ratio, beta, step or output dtype. A
state entry holds what the pass returns. It lives in
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
agree on the order by construction. An entry
whose shapes are not those the model implies, or whose size is not theirs,
is a miss before any array is allocated; one with any byte changed is a
miss too. A state hit reads the norms and the tail asked for and hashes the
rest, and the scan reads the output rows block by block from the entry, so
it needs no spill under ``TMPDIR``.

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
import hashlib
import itertools
import math
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from .calibration import CalibrationSet, RowFile
from .compensation import WhitenedWeight
from .containers import (ENTRY_VERSION, Arrays, cache_dir, entry_size, f64_bytes, plan_document,
                         plan_from_document, publish_entry, read_entry)
from .errors import FormatError
from .linalg import FactorPair, as_matrix
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
            {"tail": k, "shapes": [s for s, _ in _arrays(model, k, calib.num_samples, k)]}
    ) > MAX_BYTES:
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:  # say, a regular file on the way
        return None
    digest = key(model, calib, ws)
    return None if digest is None else directory / f"state-{digest}.ercs"


def _arrays(model: SequentialModel, tail: int, rows: int, k: int) -> Arrays:
    """The shape of each array of a ``tail``-layer state of ``rows`` rows, in order, with whether
    a load of the last ``k`` layers reads it: the norms, ``U`` and sigma of each matrix, the
    output rows."""
    arrays = [([model.n_layers], True)]
    loaded = {key for key, _ in model.tail_entries(k)}
    for key, e in model.tail_entries(tail):
        p, read = min(e.rows, e.cols), key in loaded
        arrays += [([e.rows, p], read), ([p], read)]
    return arrays + [([rows, model.layers[-1].output_dim], False)]


def load(entry: Path | None, model: SequentialModel, k: int, ws: Workspace) -> Parts | None:
    """The whitened matrices of the last ``k`` layers, the norms and the output the entry
    holds, as :func:`~resvd.calibration.capture_activations` returns them; None when it
    holds none that covers ``k``, or none at all."""
    rows, width = ws.blocks[-1].stop, model.layers[-1].output_dim

    def expect(doc: dict) -> Arrays | None:
        tail = doc.get("tail")
        if type(tail) is not int or not k <= tail <= model.n_layers:
            return None
        return _arrays(model, tail, rows, k)

    found = read_entry(entry, expect, MAX_BYTES, memoryview(ws.free(ws.rows, width)).cast("B"))
    if found is None:
        return None
    output, _, (norms, *arrays, output.offset) = found
    arrays = iter(a for a in arrays if isinstance(a, np.ndarray))  # the last k layers' U, sigma
    whitened = {key: WhitenedWeight(as_matrix(e.dense, key), next(arrays), next(arrays))
                for key, e in model.tail_entries(k)}
    output.shape = (rows, width)
    return whitened, tuple(float(v) for v in norms), output


def save(entry: Path | None, model: SequentialModel, tail: int, parts: Parts,
         ws: Workspace) -> None:
    """Write the parts a pass of ``model`` over the blocks of ``ws`` returned for the last
    ``tail`` layers as the entry at ``entry``, which :func:`entry_for` gave only for a state
    within :data:`MAX_BYTES`. The output rows are copied raw from ``output`` a block at a time
    through a free buffer of ``ws``."""
    if entry is None:
        return
    whitened, norms, output = parts
    arrays = [np.array(norms), *(a for key, _ in model.tail_entries(tail)
                                 for a in (whitened[key].u, whitened[key].sigma))]
    buf = memoryview(ws.free(ws.rows, output.shape[1])).cast("B")
    raw = output.pieces(buf, output.offset, output.offset + 8 * math.prod(output.shape))
    doc = {"tail": tail, "shapes": [list(a.shape) for a in arrays] + [list(output.shape)]}
    publish_entry(entry, doc, itertools.chain(arrays, raw), MAX_ENTRIES, MAX_BYTES)


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
    def expect(doc: dict) -> Arrays | None:
        k = doc.get("k")
        if type(k) is not int or not 1 <= k < model.n_layers:
            return None
        tail = [e for _, e in model.tail_entries(k)]
        try:  # each pair's rank is the second extent of its u_hat
            ranks = [u[1] for u in doc["shapes"][::2]]
        except (KeyError, TypeError, IndexError):
            return None
        if len(ranks) != len(tail) or not all(
                type(r) is int and 1 <= r <= min(e.rows, e.cols) for e, r in zip(tail, ranks)):
            return None
        return [(shape, True) for e, r in zip(tail, ranks) for shape in ([e.rows, r], [r, e.cols])]

    found = read_entry(entry, expect, MAX_BYTES)
    try:
        chosen = None if found is None else plan_from_document(found[1], str(entry))
    except FormatError:
        return None
    if chosen is None or (chosen.k, "ok") not in {(row.k, row.status)
                                                  for row in chosen.candidate_table}:
        return None
    arrays = found[2]
    pairs = {key: FactorPair(u_hat=u, v_hat=v)
             for (key, _), u, v in zip(model.tail_entries(chosen.k), arrays[::2], arrays[1::2])}
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
