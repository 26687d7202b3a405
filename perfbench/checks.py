"""Correctness checks on one compress + analyze pair.

Every check reads only the files and text the CLI produced. A non-empty
list of problems marks the pair as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import Workload

# Prefix layers are never touched, so their reported error is float noise at most.
PREFIX_ERROR_LIMIT = 1e-12
F32_REL_TOLERANCE = 1e-6


def dir_digest(root: Path) -> str:
    """sha256 over every file name and its bytes, in sorted name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _params(manifest: dict) -> int:
    total = 0
    for layer in manifest["layers"]:
        for m in layer["matrices"]:
            if m["kind"] == "factored":
                total += (m["rows"] + m["cols"]) * m["rank"]
            else:
                total += m["rows"] * m["cols"]
    return total


def _analyze_errors(stdout: str) -> list[float]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "layer_index,relative_error":
        raise ValueError("analyze printed no error table")
    return [float(line.split(",", 1)[1]) for line in lines[1:]]


def check_pair(wl: Workload, model_dir: Path, out_dir: Path,
               compress_rc: int, analyze_rc: int, analyze_stdout: str) -> tuple[list[str], float]:
    """Problems found in one compress + analyze pair, and the plan's chosen error."""
    try:
        return _check_pair(wl, model_dir, out_dir, compress_rc, analyze_rc, analyze_stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output unreadable: {exc!r}"], math.nan


def _check_pair(wl, model_dir, out_dir, compress_rc, analyze_rc, analyze_stdout):
    if compress_rc != 0 or analyze_rc != 0:
        return [f"exit codes compress={compress_rc} analyze={analyze_rc}"], math.nan
    problems = []
    plan = json.loads((out_dir / "plan.json").read_text())
    n, k, chosen = plan["n_layers"], plan["k"], plan["chosen_error"]
    if n != wl.n_layers or plan["overall_ratio"] != wl.ratio:
        problems.append(f"plan is for N={n}, R_o={plan['overall_ratio']}")

    ok = [c for c in plan["candidates"] if c["status"] == "ok"]
    best = min(ok, key=lambda c: (c["final_error"], c["k"]), default=None)
    if best is None or best["k"] != k or best["final_error"] != chosen:
        problems.append(f"k={k} is not the argmin of the ok candidates")

    # R_l is the exact rational N*R_o/k, so k*R_l == N*R_o holds identically;
    # the stored float must be that rational, rounded.
    r_o = Fraction(plan["overall_ratio"])
    if not math.isclose(float(r_o * n / k), plan["layer_ratio"], rel_tol=1e-15, abs_tol=0.0):
        problems.append(f"layer_ratio {plan['layer_ratio']!r} is not N*R_o/k for k={k}")

    original = json.loads((model_dir / "manifest.json").read_text())
    compressed = json.loads((out_dir / "manifest.json").read_text())
    slack = max((m["rows"] + m["cols"]) / (m["rows"] * m["cols"])
                for layer in original["layers"] for m in layer["matrices"])
    ratio = _params(compressed) / _params(original)
    hi = 1.0 - float(r_o)
    if not hi - slack <= ratio <= hi:
        problems.append(f"parameter ratio {ratio:.6f} outside [{hi - slack:.6f}, {hi:.6f}]")

    errors = _analyze_errors(analyze_stdout)
    if len(errors) != n:
        problems.append(f"analyze reported {len(errors)} layers, expected {n}")
    elif wl.dtype == "f64":
        # f32 output rounds the prefix weights too, so only f64 keeps them exact.
        if any(e > PREFIX_ERROR_LIMIT for e in errors[: n - k]):
            problems.append("an uncompressed prefix layer reports non-zero error")
        if errors[-1] != chosen:
            problems.append(f"analyze final error {errors[-1]!r} != chosen_error {chosen!r}")
    elif not math.isclose(errors[-1], chosen, rel_tol=F32_REL_TOLERANCE):
        problems.append(f"analyze final error {errors[-1]!r} not within "
                        f"{F32_REL_TOLERANCE} of chosen_error {chosen!r}")
    return problems, chosen
