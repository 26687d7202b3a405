"""Schema check of the benchmark's own output on the default 8x64x256 demo.

    python3 perfbench/check_schema.py

Runs the ``smoke`` workload once untraced and once traced, then checks the
result line against BENCHMARK.json (metric names and units, no timings)
and every record of the span file. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_TYPES = {"id": int, "name": str, "start": float, "end": float,
              "parent": (int, type(None)), "thread": int, "iteration": int}


def fail(msg: str) -> None:
    print(f"check_schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def check_result(result: dict, declared: list[dict], trace: int) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"trace {trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"trace {trace}: smoke run reported failures: {result}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"trace {trace}: attempted is {result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"trace {trace}: metrics/units {got} != BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"trace {trace}: metric {name} is {m}")


def check_spans(path: Path) -> int:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    if not spans:
        fail(f"{path} holds no spans")
    ids = {(s["iteration"], s["id"]) for s in spans}
    for s in spans:
        if set(s) != set(SPAN_TYPES):
            fail(f"span keys {sorted(s)}")
        for key, kind in SPAN_TYPES.items():
            if not isinstance(s[key], kind):
                fail(f"span {s['id']}: {key}={s[key]!r}")
        if s["end"] < s["start"]:
            fail(f"span {s['id']} ends before it starts")
        if s["parent"] is not None and (s["iteration"], s["parent"]) not in ids:
            fail(f"span {s['id']} has unknown parent {s['parent']}")
    return len(spans)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, _ = run(0)
    check_result(result, bench["end_to_end"], 0)
    result, lines = run(1)
    check_result(result, bench["per_layer"], 1)
    spans_line = next((ln for ln in lines if ln.startswith("spans: ")), None)
    if spans_line is None:
        fail("traced run did not name its span file")
    n = check_spans(Path(spans_line.removeprefix("spans: ")))
    print(f"check_schema: PASS ({len(bench['end_to_end'])} end-to-end and "
          f"{len(bench['per_layer'])} per-layer metrics, {n} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
