"""resvd benchmark: seeded compress + analyze workloads, checked and timed.

    python3 perfbench/run.py --workload wide-svd --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/resvd``. The
workload's inputs are generated from ``--seed``; the median over repeated
set-ups gives ``setup_s``. With ``--trace 0`` the benchmark repeats
``resvd compress`` and then ``resvd analyze`` (twice), each in its own
child process, for ``--seconds`` and reports medians of the end-to-end
metrics. With ``--trace 1`` it repeats compress and analyze inside this
process with every layer boundary wrapped, and reports the per-layer
metrics. Every pair's outputs are checked; the last line of stdout is one
JSON result object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# The package under test comes from the checkout's sources, never from an install.
if not (SRC / "resvd" / "cli.py").is_file():
    sys.exit(f"perfbench: no resvd sources under {SRC}; run inside a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import resvd.cli  # noqa: E402
import scipy  # noqa: E402
from checks import check_pair, dir_digest  # noqa: E402
from tracer import COUNT_METRICS, Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SECONDS = 2.0  # set-up repeats this long (and at least MIN_SETUPS times) for a steady median
MIN_SETUPS = 3
MIN_PAIRS = 3  # untraced compress + analyze pairs per run, even past --seconds
MIN_TRACED = 2  # traced pairs per run; counts are compared between them
ANALYZE_REPEATS = 2  # analyze is short and mostly interpreter start-up: sample it twice per pair
CHILD_TIMEOUT_S = 150

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "compress_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "compress_rss_mb": ("MB", "lower"),
    "analyze_rss_mb": ("MB", "lower"),
    "final_error": ("ratio", "lower"),
}
PER_LAYER = {
    "containers.load_model.s": ("s", "lower"),
    "containers.load_calibration.s": ("s", "lower"),
    "containers.save_model.s": ("s", "lower"),
    "containers.bytes_read": ("B", "lower"),
    "containers.bytes_written": ("B", "lower"),
    "calibration.subsample.s": ("s", "lower"),
    "calibration.capture_activations.s": ("s", "lower"),
    "calibration.capture_activations.calls": ("count", "lower"),
    "calibration.whiten.s": ("s", "lower"),
    "calibration.whiten.calls": ("count", "lower"),
    "linalg.svd_whitened.calls": ("count", "lower"),
    "linalg.svd_whitened.s": ("s", "lower"),
    "linalg.svd_residual.calls": ("count", "lower"),
    "linalg.svd_residual.s": ("s", "lower"),
    "linalg.svd.gflop_computed": ("GFLOP", "lower"),
    "compensation.compress_matrix.calls": ("count", "lower"),
    "compensation.compress_matrix.self_s": ("s", "lower"),
    "model.forward.calls": ("count", "lower"),
    "model.forward.layer_rows": ("count", "lower"),
    "model.forward.s": ("s", "lower"),
    "model.layerwise_error.self_s": ("s", "lower"),
    "planner.plan.s": ("s", "lower"),
    "planner.plan.self_s": ("s", "lower"),
    "planner.compress_model.s": ("s", "lower"),
    "planner.candidates": ("count", "lower"),
    "planner.candidates_failed": ("count", "lower"),
    "planner.parallelism": ("ratio", "higher"),
    "cli.compress.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _blas_threads() -> tuple[str, int | None]:
    """OpenBLAS build string and thread count of the BLAS numpy loaded, if readable."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return "unknown", None


def environment(erc_threads: str | None) -> dict:
    try:
        blas, blas_threads = _blas_threads()
    except OSError:
        blas, blas_threads = "unknown", None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "ERC_THREADS": "unset" if erc_threads is None
                       else f"{erc_threads!r} in the caller, unset for the runs",
    }


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, str]:
    """Run ``resvd <argv>`` as a child; return exit code, wall s, peak RSS MB, stdout."""
    with open(log, "w+") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "resvd.cli", *argv], stdout=fh, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, fh.read()


def run_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = resvd.cli.main(argv)
    return rc, buf.getvalue()


def setup(wl, seed: int, work: Path) -> tuple[Path, Path, float, list[str]]:
    """Write the inputs repeatedly for SETUP_SECONDS (at least MIN_SETUPS times); keep the first."""
    times, digests = [], set()
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(times) < MIN_SETUPS or time.perf_counter() < deadline:
        root = work / f"inputs{len(times)}"
        start = time.perf_counter()
        paths = wl.write_inputs(seed, root)
        times.append(time.perf_counter() - start)
        digests.add(dir_digest(root))
        if len(times) == 1:
            model, calib = paths
        else:
            shutil.rmtree(root)
    problems = [] if len(digests) == 1 else ["set-up is not deterministic for one seed"]
    return model, calib, statistics.median(times), problems


def untraced_pairs(wl, seed, model, calib, work, seconds) -> tuple[dict, int, int, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = work / "out"
    samples = {name: [] for name in ("compress_s", "compress_rss_mb", "analyze_s",
                                     "analyze_rss_mb", "final_error")}
    problems, digests, pairs, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while pairs < MIN_PAIRS or time.perf_counter() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        c_rc, c_s, c_rss, _ = run_child(wl.compress_argv(model, calib, out, seed), env,
                                        work / "compress.log")
        samples["compress_s"].append(c_s)
        samples["compress_rss_mb"].append(c_rss)
        found = []
        for _ in range(ANALYZE_REPEATS):
            a_rc, a_s, a_rss, a_text = run_child(wl.analyze_argv(model, out, calib, seed), env,
                                                 work / "analyze.log")
            samples["analyze_s"].append(a_s)
            samples["analyze_rss_mb"].append(a_rss)
            more, chosen = check_pair(wl, model, out, c_rc, a_rc, a_text)
            found += [m for m in more if m not in found]
        samples["final_error"].append(chosen)
        digests.append(dir_digest(out) if c_rc == 0 else None)
        if digests[-1] != digests[0]:
            found.append("output directory differs from the first run of this seed")
        problems += [f"pair {pairs}: {p}" for p in found]
        pairs += 1
        failed += bool(found)
    for name, values in samples.items():
        print(f"{name} samples: " + " ".join(f"{v:.5g}" for v in values), file=sys.stderr)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, pairs, failed, problems


def traced_pairs(wl, seed, model, calib, work, seconds, trace_file) -> tuple[dict, int, int, list[str]]:
    out = work / "out"
    rows, problems, untraced_s, traced_s, failed = [], [], [], [], 0
    origin = time.perf_counter()
    deadline = origin + seconds

    def untraced():
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        rc, _ = run_in_process(wl.compress_argv(model, calib, out, seed))
        untraced_s.append(time.perf_counter() - start)
        return rc, dir_digest(out)

    def traced():
        shutil.rmtree(out, ignore_errors=True)
        tracer = Tracer()
        install(tracer)
        try:
            with tracer.span("cli.compress"):
                c_rc, _ = run_in_process(wl.compress_argv(model, calib, out, seed))
            with tracer.span("cli.analyze"):
                a_rc, a_text = run_in_process(wl.analyze_argv(model, out, calib, seed))
        finally:
            tracer.uninstall()
        traced_s.append(next(s.seconds for s in tracer.spans if s.name == "cli.compress"))
        found, _ = check_pair(wl, model, out, c_rc, a_rc, a_text)
        return tracer, found, dir_digest(out) if c_rc == 0 else None

    while len(rows) < MIN_TRACED or time.perf_counter() < deadline:
        # Alternate which compress runs first, so neither side always meets a warm heap.
        if len(rows) % 2 == 0:
            u_rc, u_digest = untraced()
            tracer, found, t_digest = traced()
        else:
            tracer, found, t_digest = traced()
            u_rc, u_digest = untraced()
        tracer.write_jsonl(trace_file, origin, {"iteration": len(rows)})
        if u_rc != 0:
            found.append(f"untraced compress exited {u_rc}")
        elif t_digest is not None and t_digest != u_digest:
            found.append("traced output differs from the untraced output")
        problems += [f"traced pair {len(rows)}: {p}" for p in found]
        failed += bool(found)
        rows.append(layer_metrics(tracer))

    for name in COUNT_METRICS:
        values = {r[name] for r in rows}
        if len(values) != 1:
            problems.append(f"count {name} differs between runs of the same code: "
                            f"{sorted(values)}")
    metrics = {name: statistics.median(r[name] for r in rows)
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return metrics, len(rows), failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    erc_threads = os.environ.pop("ERC_THREADS", None)
    print("environment: " + json.dumps(environment(erc_threads), sort_keys=True))

    work = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        model, calib, setup_s, problems = setup(wl, args.seed, work)
        if args.trace:
            trace_dir = WORK / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = trace_dir / f"{wl.name}-seed{args.seed}.jsonl"
            trace_file.unlink(missing_ok=True)
            metrics, attempted, failed, found = traced_pairs(
                wl, args.seed, model, calib, work, args.seconds, trace_file)
            units = PER_LAYER
            print(f"spans: {trace_file}")
        else:
            metrics, attempted, failed, found = untraced_pairs(
                wl, args.seed, model, calib, work, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += found
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name][0]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
