"""Command-line surface.

Subcommands: ``compress`` (plan, then write the plan's winning trial model
and its per-layer error report, scored by the ``layerwise_error`` call that
``analyze`` makes),
``plan`` (candidate table only), ``analyze`` (layer-wise error CSV for a
model pair), ``verify`` (theory oracles, JSON report), and ``gen-demo``
(seeded demo workload). Exit codes: 0 success, 1 a failed ``verify`` or
any other compression error, 2 parse or format problems (including NaN or
infinite values in calibration or tensor files), 3 infeasible budget, 4
numerical failure, 5 out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibrationSet
from .containers import (
    STORE_DTYPES,
    format_error_report,
    load_calibration_auto,
    load_model,
    plan_header,
    save_error_report,
    save_model,
    save_plan,
)
from .errors import (
    CompressionError,
    FormatError,
    InfeasibleBudgetError,
    InfeasiblePlanError,
    NumericalError,
)
from .model import SequentialModel, layerwise_error, same_skeleton
from .planner import CompressionPlan, PlannerConfig, plan
# Not called here; perfbench/tracer.py wraps it by name (ROADMAP item 1).
from .planner import compress_model  # noqa: F401

PLAN_CSV_HEADER = "k,layer_ratio,final_error"
_TOOL = {"name": "resvd", "version": __version__}

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_FORMAT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_MEMORY = 5

# (exception types, stderr label, exit code); the first match wins
_FAILURES = (
    (FormatError, "format error", EXIT_FORMAT),
    (OSError, "io error", EXIT_FORMAT),
    ((InfeasiblePlanError, InfeasibleBudgetError), "infeasible", EXIT_INFEASIBLE),
    # LinAlgError subclasses ValueError, so it must come first
    ((NumericalError, np.linalg.LinAlgError), "numerical failure", EXIT_NUMERICAL),
    (CompressionError, "error", EXIT_FAILED),
    (ValueError, "invalid configuration", EXIT_FORMAT),
    (MemoryError, "out of memory", EXIT_MEMORY),
)


def _checked(parse, ok, bounds: str):
    """argparse ``type``: ``parse`` the text, then require ``ok(value)``, worded by ``bounds``."""
    noun = "a number" if parse is float else "an integer"

    def check(text: str):
        try:
            v = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return v

    return check


_ratio_arg = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_beta_arg = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_nonneg_int = _checked(int, lambda v: v >= 0, ">= 0")


def _load_calib(args: argparse.Namespace, model: SequentialModel, path: str) -> CalibrationSet:
    """The ``--calib`` rows the command uses, refused unless they are as wide as the input of
    ``model``, the model at ``path``. The check runs before any pass or cache key, so a
    mismatch is one format error whatever the row count."""
    calib = load_calibration_auto(args.calib)
    if calib.input_dim != model.input_dim:
        raise FormatError(f"{args.calib}: calibration rows are {calib.input_dim} wide, but the "
                          f"model in {path} takes inputs {model.input_dim} wide")
    if 0 < args.samples < calib.num_samples:
        return calib.subsample(args.samples, args.seed)
    return calib


def _planner_config(args: argparse.Namespace) -> PlannerConfig:
    # --baseline is shorthand for a zero residual share
    return PlannerConfig(overall_ratio=args.ratio, step=args.step,
                         beta=0.0 if args.baseline else args.beta, seed=args.seed)


def _run_config(args: argparse.Namespace, cfg: PlannerConfig) -> dict:
    """Invocation echo written into compress's manifest and plan for provenance."""
    return {
        "overall_ratio": cfg.overall_ratio,
        "beta": cfg.beta,
        "step": cfg.step,
        "calib_samples": args.samples,
        "seed": cfg.seed,
        "model_path": args.model,
        "calib_path": args.calib,
        "out_path": args.out,
        "out_dtype": args.dtype,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _refuse_to_overwrite(args: argparse.Namespace, *model_dirs: str) -> None:
    """Refuse an ``--out`` that resolves to ``--calib`` or to a path under a model directory,
    or that cannot be written as the command writes it.

    ``compress`` writes a directory, so its ``--out`` must not hold
    ``--calib``, and its nearest existing path must be a directory;
    ``plan``, ``analyze`` and ``verify`` write a file, so theirs must not be
    a directory, and the directory it goes in must exist. Called before
    anything is loaded, run or written, so a refused run leaves every input
    as it was and spends no work.
    """
    if not args.out:
        return
    out = Path(args.out).resolve()
    calib = getattr(args, "calib", None)
    if calib is not None and out == Path(calib).resolve():
        raise ValueError(f"--out {args.out} is the --calib file; "
                         f"{args.command} does not overwrite its input")
    for flag in model_dirs:
        root = Path(getattr(args, flag)).resolve()
        if out == root or root in out.parents:
            where = "the" if out == root else "inside the"
            raise ValueError(f"--out {args.out} is {where} --{flag} directory; "
                             f"{args.command} does not overwrite its input")
    if args.command == "compress":
        if out in Path(calib).resolve().parents:  # --calib is required
            raise ValueError(f"--out {args.out} holds the --calib file; "
                             "compress does not overwrite its input")
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            where = "is" if existing == out else f"lies under {existing}, which is"
            raise ValueError(f"--out {args.out} {where} not a directory; "
                             "compress writes a model directory")
        return
    if out.is_dir():
        raise ValueError(f"--out {args.out} is a directory; {args.command} writes a file")
    if not out.parent.is_dir():
        what = "is not a directory" if out.parent.exists() else "does not exist"
        raise ValueError(f"--out {args.out} goes in {out.parent}, which {what}; "
                         f"{args.command} writes a file there")


def cmd_compress(args: argparse.Namespace) -> int:
    _refuse_to_overwrite(args, "model")
    cfg = _planner_config(args)
    model = load_model(args.model)
    calib = _load_calib(args, model, args.model)
    chosen = plan(model, calib, cfg)
    errors = layerwise_error(model, chosen.compressed, calib)
    run = _run_config(args, cfg)
    meta = {**chosen.compressed.meta, "compression": plan_header(chosen, _TOOL, run)}
    out = Path(args.out)
    save_model(dataclasses.replace(chosen.compressed, meta=meta), out, dtype=args.dtype)
    save_plan(chosen, out / "plan.json", tool=_TOOL, config=run)
    save_error_report(errors, out / "errors.csv")
    print(f"compressed {chosen.k}/{chosen.n_layers} layers at "
          f"layer_ratio={chosen.layer_ratio:.6g}, "
          f"final_error={chosen.chosen_error:.6g} -> {out}")
    return EXIT_OK


def _plan_csv(chosen: CompressionPlan) -> str:
    # a failed candidate's final_error is nan
    lines = [PLAN_CSV_HEADER] + ["%d,%.17g,%.17g" % (row.k, row.layer_ratio, row.final_error)
                                 for row in chosen.candidate_table]
    return "\n".join(lines) + "\n"


def cmd_plan(args: argparse.Namespace) -> int:
    _refuse_to_overwrite(args, "model")
    model = load_model(args.model)
    chosen = plan(model, _load_calib(args, model, args.model), _planner_config(args))
    _emit(_plan_csv(chosen), args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    _refuse_to_overwrite(args, "original", "compressed")
    original = load_model(args.original)
    compressed = load_model(args.compressed)
    if not same_skeleton(original, compressed):  # before any rows load
        raise FormatError(f"the model in {args.compressed} does not have the layers, matrix "
                          f"shapes and activations of the model in {args.original}")
    calib = _load_calib(args, original, args.original)
    _emit(format_error_report(layerwise_error(original, compressed, calib)), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _refuse_to_overwrite(args)
    from .oracle import run_all  # only verify loads the oracles

    reports = run_all(trials=args.trials, seed=args.seed)
    doc = {
        "format": "resvd-verify",
        "tool": _TOOL,
        "config": {"trials": args.trials, "seed": args.seed, "out_path": args.out},
        "trials": args.trials,
        "seed": args.seed,
        "suites": [r.as_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if doc["passed"] else EXIT_FAILED


# gen-demo options left unset fall back to demo.generate's own defaults
_DEMO_OPTIONS = ("n_layers", "width", "samples", "seed")


def cmd_gen_demo(args: argparse.Namespace) -> int:
    from .demo import generate  # only gen-demo loads the generator (and hashlib)

    doc = generate(args.out, **{k: v for k, v in vars(args).items() if k in _DEMO_OPTIONS})
    print(f"demo written to {args.out} (output sha256 {doc['output_sha256'][:12]}…)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resvd",
        description="Low-rank compression with residual compensation.",
    )
    parser.add_argument("--version", action="version", version=f"resvd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    calibrated = argparse.ArgumentParser(add_help=False)
    calibrated.add_argument("--calib", required=True, help="calibration file (binary or CSV)")
    calibrated.add_argument("--samples", type=_nonneg_int, default=256,
                            help="calibration rows to use, 0 = all (default 256)")
    calibrated.add_argument("--seed", type=_nonneg_int, default=0, help="run seed (default 0)")

    planned = argparse.ArgumentParser(add_help=False, parents=[calibrated])
    planned.add_argument("--model", required=True, help="model directory")
    planned.add_argument("--ratio", type=_ratio_arg, required=True,
                         help="overall parameter reduction target in (0, 1)")
    share = planned.add_mutually_exclusive_group()
    share.add_argument("--beta", type=_beta_arg, default=0.05,
                       help="residual rank share (default 0.05)")
    share.add_argument("--baseline", action="store_true",
                       help="direct truncation only, no residual stage (beta 0)")
    planned.add_argument("--step", type=_positive_int, default=1,
                         help="stride for candidate tail sizes (default 1)")

    p = sub.add_parser("compress", parents=[planned],
                       help="compress a model and write reports")
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--dtype", choices=STORE_DTYPES, default="f64",
                   help="storage dtype of every output tensor (default f64)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("plan", parents=[planned],
                       help="print the candidate table without compressing")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("analyze", parents=[calibrated],
                       help="layer-wise error CSV for a model pair")
    p.add_argument("--original", required=True, help="original model directory")
    p.add_argument("--compressed", required=True, help="compressed model directory")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the theory oracles")
    p.add_argument("--trials", type=_positive_int, default=100,
                   help="trials per suite (default 100)")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="oracle seed (default 0)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-demo", help="generate a seeded demo model + calibration",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--layers", dest="n_layers", metavar="LAYERS", type=_positive_int)
    p.add_argument("--width", type=_positive_int)
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--seed", type=_nonneg_int)
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
    except (CompressionError, OSError, ValueError, MemoryError) as exc:
        label, code = next((label, code) for kinds, label, code in _FAILURES
                           if isinstance(exc, kinds))
        print(f"resvd: {label}: {exc}" if str(exc) else f"resvd: {label}", file=sys.stderr)
        return code


def entry() -> None:
    code = main()
    # Move every object left alive into the permanent generation, so the
    # collections at interpreter shutdown skip numpy's and resvd's heap.
    # This holds because every file the command wrote is closed by now, and
    # shutdown still flushes stdio and runs atexit handlers. Only the process
    # entry point does this; main() is also called in-process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
