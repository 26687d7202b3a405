"""In-process span tracer for the traced run.

Wrappers replace the package's public functions at the names the calling
modules look them up under (``resvd.cli.load_model``,
``resvd.planner.compress_matrix``, ...), so nothing under ``src/`` changes.
Spans are kept in memory and written out when the run ends.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: the candidate pool
in ``planner.plan`` is the only place the package starts threads, and its
workers run while the main thread waits inside ``plan``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import resvd.calibration
import resvd.cli
import resvd.compensation
import resvd.model
import resvd.planner

@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        main_stack = self._stacks.get(self._main)
        if stack:
            parent = stack[-1]
        elif tid != self._main and main_stack:
            parent = main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, tid))

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` with a spanned call until :meth:`uninstall`.

        ``name`` is a span name or a function of the call's arguments;
        ``after(args, kwargs, result)`` records counters once the call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_jsonl(self, path: Path, origin: float, extra: dict) -> None:
        with open(path, "a") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                rec = asdict(s)
                rec["start"] = s.start - origin
                rec["end"] = s.end - origin
                rec.update(extra)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _model_files(model_dir) -> list[Path]:
    root = Path(model_dir)
    doc = json.loads((root / "manifest.json").read_text())
    return [root / "manifest.json"] + [
        root / m["file"] for layer in doc["layers"] for m in layer["matrices"]
    ]


def _svd_name(w, name: str = "matrix") -> str:
    if name.endswith(" (whitened)"):
        return "linalg.svd_whitened"
    if name.endswith(" (residual)"):
        return "linalg.svd_residual"
    return "linalg.svd"


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the package (``oracle`` is left out)."""
    def read_model(args, kwargs, result):
        tracer.count("containers.bytes_read", _file_bytes(_model_files(args[0])))

    def read_calib(args, kwargs, result):
        tracer.count("containers.bytes_read", _file_bytes([args[0]]))

    def wrote_model(args, kwargs, result):
        tracer.count("containers.bytes_written", _file_bytes(_model_files(args[1])))

    def svd_flops(args, kwargs, result):
        # Golub & Van Loan's R-SVD count for a thin SVD with both factors.
        q, p = sorted(args[0].shape, reverse=True)
        tracer.count("linalg.svd.flop", 6 * q * p * p + 20 * p ** 3)

    def forward_rows(args, kwargs, result):
        model, x = args[0], args[1]
        tracer.count("model.forward.layer_rows", model.n_layers * len(x))

    def planned(args, kwargs, result):
        table = result.candidate_table
        tracer.count("planner.candidates", len(table))
        tracer.count("planner.candidates_failed", sum(r.status != "ok" for r in table))

    cli, planner = resvd.cli, resvd.planner
    tracer.wrap(cli, "load_model", "containers.load_model", read_model)
    tracer.wrap(cli, "load_calibration_auto", "containers.load_calibration", read_calib)
    tracer.wrap(cli, "save_model", "containers.save_model", wrote_model)
    tracer.wrap(resvd.calibration.CalibrationSet, "subsample", "calibration.subsample")
    tracer.wrap(planner, "capture_activations", "calibration.capture_activations")
    tracer.wrap(resvd.calibration, "whiten", "calibration.whiten")
    tracer.wrap(resvd.compensation, "svd", _svd_name, svd_flops)
    tracer.wrap(planner, "compress_matrix", "compensation.compress_matrix")
    tracer.wrap(planner, "compress_tail_layers", "planner.compress_tail_layers")
    tracer.wrap(resvd.model, "forward", "model.forward", forward_rows)
    tracer.wrap(planner, "layerwise_error", "model.layerwise_error")
    tracer.wrap(cli, "layerwise_error", "model.layerwise_error")
    tracer.wrap(cli, "plan", "planner.plan", planned)
    tracer.wrap(cli, "compress_model", "planner.compress_model")


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# Spans that, parented to a plan span, make up one candidate trial.
_TRIAL_SPANS = ("planner.compress_tail_layers", "model.layerwise_error")
_COUNTERS = ("containers.bytes_read", "containers.bytes_written", "linalg.svd.flop",
             "model.forward.layer_rows", "planner.candidates", "planner.candidates_failed")
_CALLS = ("calibration.capture_activations", "calibration.whiten", "linalg.svd_whitened",
          "linalg.svd_residual", "compensation.compress_matrix", "model.forward")
_TOTALS = ("containers.load_model", "containers.load_calibration", "containers.save_model",
           "calibration.subsample", "calibration.capture_activations", "calibration.whiten",
           "linalg.svd_whitened", "linalg.svd_residual", "model.forward",
           "planner.plan", "planner.compress_model")
_SELF = ("compensation.compress_matrix", "model.layerwise_error", "planner.plan", "cli.compress")

# Metrics that count work; they must repeat exactly across runs of the same code.
COUNT_METRICS = (
    "containers.bytes_read", "containers.bytes_written", "linalg.svd.gflop_computed",
    "model.forward.layer_rows", "planner.candidates", "planner.candidates_failed",
    *(f"{name}.calls" for name in _CALLS),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced compress + analyze.

    ``.s`` sums span durations over all threads; ``.self_s`` subtracts from
    each span the union of its children's intervals, wherever they ran.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    out = {name: tracer.counts[name] for name in _COUNTERS}
    out["linalg.svd.gflop_computed"] = out.pop("linalg.svd.flop") / 1e9
    for name in _CALLS:
        out[f"{name}.calls"] = len(by_name[name])
    for name in _TOTALS:
        out[f"{name}.s"] = sum(s.seconds for s in by_name[name])
    for name in _SELF:
        out[f"{name}.self_s"] = sum(s.seconds - _covered(s, children[s.id])
                                    for s in by_name[name])
    plans = by_name["planner.plan"]
    trial = sum(c.seconds for p in plans for c in children[p.id] if c.name in _TRIAL_SPANS)
    out["planner.parallelism"] = trial / out["planner.plan.s"] if plans else 0.0
    return out
