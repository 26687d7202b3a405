"""Command-line surface.

Subcommands: ``compress`` (plan, then write the plan's winning trial model
and its per-layer error report, so nothing is recomputed after planning),
``plan`` (candidate table only), ``analyze`` (layer-wise error CSV for a
model pair), ``verify`` (theory oracles, JSON report), and ``gen-demo``
(seeded demo workload). Exit codes: 0 success, 1 a failed ``verify`` or
any other compression error, 2 parse or format problems (including NaN or
infinite values in calibration or tensor files), 3 infeasible budget, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .calibration import CalibrationSet
from .containers import (
    format_error_report,
    load_calibration_auto,
    load_model,
    save_error_report,
    save_model,
    save_plan,
)
from .demo import DEMO_LAYERS, DEMO_SAMPLES, DEMO_SEED, DEMO_WIDTH, generate
from .errors import (
    CompressionError,
    FormatError,
    InfeasibleBudgetError,
    InfeasiblePlanError,
    NumericalError,
)
from .model import STORE_DTYPES, layerwise_error
from .oracle import run_all
from .planner import CompressionPlan, PlannerConfig, plan
# Not called here; perfbench/tracer.py wraps it by name (ROADMAP item 6).
from .planner import compress_model  # noqa: F401

PLAN_CSV_HEADER = "k,layer_ratio,final_error"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_FORMAT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _tool() -> dict:
    return {"name": "resvd", "version": __version__}


def _ratio_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return v


def _beta_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= v < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return v


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return v


def _nonneg_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return v


def _load_calib(path: str, samples: int, seed: int) -> CalibrationSet:
    calib = load_calibration_auto(path)
    if 0 < samples < calib.num_samples:
        return calib.subsample(samples, seed)
    return calib


def _effective_beta(args: argparse.Namespace) -> float:
    # --baseline is shorthand for a zero residual share; keep the echo in sync
    return 0.0 if args.baseline else args.beta


def _run_config(args: argparse.Namespace) -> dict:
    """Invocation echo written into compress's manifest and plan for provenance."""
    return {
        "overall_ratio": args.ratio,
        "beta": _effective_beta(args),
        "step": args.step,
        "calib_samples": args.samples,
        "seed": args.seed,
        "model_path": args.model,
        "calib_path": args.calib,
        "out_path": args.out,
        "out_dtype": args.dtype,
    }


def _planner_config(args: argparse.Namespace) -> PlannerConfig:
    return PlannerConfig(overall_ratio=args.ratio, step=args.step,
                         beta=_effective_beta(args), seed=args.seed)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_compress(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    calib = _load_calib(args.calib, args.samples, args.seed)
    cfg = _planner_config(args)
    run = _run_config(args)

    chosen = plan(model, calib, cfg)
    compressed = chosen.compressed
    meta = dict(compressed.meta)
    meta["compression"] = {
        "k": chosen.k,
        "layer_ratio": chosen.layer_ratio,
        "overall_ratio": chosen.overall_ratio,
        "beta": chosen.beta,
        "seed": chosen.seed,
        "n_layers": chosen.n_layers,
        "chosen_error": chosen.chosen_error,
        "tool": _tool(),
        "config": run,
    }
    if args.dtype != "f64":
        layers = tuple(
            dataclasses.replace(
                layer,
                entries=tuple(dataclasses.replace(e, store_dtype=args.dtype)
                              for e in layer.entries),
            )
            for layer in compressed.layers
        )
    else:
        layers = compressed.layers
    compressed = dataclasses.replace(compressed, layers=layers, meta=meta)

    out = Path(args.out)
    save_model(compressed, out)
    save_plan(chosen, out / "plan.json", tool=_tool(), config=run)
    save_error_report(chosen.layer_errors, out / "errors.csv")
    print(f"compressed {chosen.k}/{chosen.n_layers} layers at "
          f"layer_ratio={chosen.layer_ratio:.6g}, "
          f"final_error={chosen.chosen_error:.6g} -> {out}")
    return EXIT_OK


def _plan_csv(chosen: CompressionPlan) -> str:
    lines = [PLAN_CSV_HEADER]
    for row in chosen.candidate_table:
        err = row.final_error if row.status == "ok" else math.nan
        lines.append("%d,%.17g,%.17g" % (row.k, row.layer_ratio, err))
    return "\n".join(lines) + "\n"


def cmd_plan(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    calib = _load_calib(args.calib, args.samples, args.seed)
    chosen = plan(model, calib, _planner_config(args))
    _emit(_plan_csv(chosen), args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    original = load_model(args.original)
    compressed = load_model(args.compressed)
    calib = _load_calib(args.calib, args.samples, args.seed)
    _emit(format_error_report(layerwise_error(original, compressed, calib)), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_all(trials=args.trials, seed=args.seed)
    doc = {
        "format": "resvd-verify",
        "tool": _tool(),
        "config": {"trials": args.trials, "seed": args.seed, "out_path": args.out},
        "trials": args.trials,
        "seed": args.seed,
        "suites": [r.as_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if doc["passed"] else EXIT_FAILED


def cmd_gen_demo(args: argparse.Namespace) -> int:
    doc = generate(args.out, n_layers=args.layers, width=args.width,
                   samples=args.samples, seed=args.seed)
    print(f"demo written to {args.out} (output sha256 {doc['output_sha256'][:12]}…)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resvd",
        description="Low-rank compression with residual compensation.",
    )
    parser.add_argument("--version", action="version", version=f"resvd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_ratio=True):
        p.add_argument("--model", required=True, help="model directory")
        p.add_argument("--calib", required=True, help="calibration file (binary or CSV)")
        if with_ratio:
            p.add_argument("--ratio", type=_ratio_arg, required=True,
                           help="overall parameter reduction target in (0, 1)")
            p.add_argument("--beta", type=_beta_arg, default=0.05,
                           help="residual rank share (default 0.05)")
            p.add_argument("--baseline", action="store_true",
                           help="direct truncation only, no residual stage")
            p.add_argument("--step", type=_positive_int, default=1,
                           help="stride for candidate tail sizes (default 1)")
        p.add_argument("--samples", type=_nonneg_int, default=256,
                       help="calibration rows to use, 0 = all (default 256)")
        p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")

    p = sub.add_parser("compress", help="compress a model and write reports")
    add_common(p)
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--dtype", choices=STORE_DTYPES, default="f64",
                   help="tensor storage dtype for the output (default f64)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("plan", help="print the candidate table without compressing")
    add_common(p)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("analyze", help="layer-wise error CSV for a model pair")
    p.add_argument("--original", required=True, help="original model directory")
    p.add_argument("--compressed", required=True, help="compressed model directory")
    p.add_argument("--calib", required=True, help="calibration file (binary or CSV)")
    p.add_argument("--samples", type=_nonneg_int, default=256,
                   help="calibration rows to use, 0 = all (default 256)")
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the theory oracles")
    p.add_argument("--trials", type=_positive_int, default=100,
                   help="trials per suite (default 100)")
    p.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-demo", help="generate a seeded demo model + calibration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--layers", type=_positive_int, default=DEMO_LAYERS)
    p.add_argument("--width", type=_positive_int, default=DEMO_WIDTH)
    p.add_argument("--samples", type=_positive_int, default=DEMO_SAMPLES)
    p.add_argument("--seed", type=int, default=DEMO_SEED)
    p.set_defaults(func=cmd_gen_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"resvd: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"resvd: io error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (InfeasiblePlanError, InfeasibleBudgetError) as exc:
        print(f"resvd: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"resvd: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CompressionError as exc:
        print(f"resvd: error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"resvd: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
