"""Seeded benchmark workloads and the input writer they share.

Each workload is a demo model plus a calibration file, written with the
package's own generators and container writers. The program under test only
ever sees the files.

The run seed draws the calibration rows (and is passed to ``--seed``, which
drives subsampling). The model is the same for every seed, drawn from
``MODEL_SEED``: across model seeds the chosen error of one workload varies by
a factor of three, which would swamp any quality regression, while across
calibration draws it varies by 0.3-5 % (interquartile range over ten seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from resvd.containers import save_calibration, save_calibration_csv, save_model
from resvd.demo import demo_calibration, demo_model

MODEL_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_layers: int
    width: int
    rows: int  # calibration rows written to disk
    calib_format: str  # "bin" (ERCC container) or "csv"
    ratio: float
    samples: int  # --samples for compress and analyze; 0 = all rows
    baseline: bool = False
    dtype: str = "f64"

    def write_inputs(self, seed: int, root: Path) -> tuple[Path, Path]:
        """Write ``root/model`` and ``root/calib.<fmt>``; return both paths."""
        root.mkdir(parents=True, exist_ok=True)
        model_dir = root / "model"
        save_model(demo_model(self.n_layers, self.width, MODEL_SEED), model_dir)
        calib = demo_calibration(self.rows, self.width, seed)
        calib_path = root / f"calib.{self.calib_format}"
        if self.calib_format == "csv":
            save_calibration_csv(calib, calib_path)
        else:
            save_calibration(calib, calib_path)
        return model_dir, calib_path

    def compress_argv(self, model: Path, calib: Path, out: Path, seed: int) -> list[str]:
        argv = ["compress", "--model", str(model), "--calib", str(calib),
                "--ratio", repr(self.ratio)]
        if self.baseline:
            argv.append("--baseline")
        return argv + ["--samples", str(self.samples), "--seed", str(seed),
                       "--dtype", self.dtype, "--out", str(out)]

    def analyze_argv(self, model: Path, compressed: Path, calib: Path, seed: int) -> list[str]:
        return ["analyze", "--original", str(model), "--compressed", str(compressed),
                "--calib", str(calib), "--samples", str(self.samples), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-svd",
            why="12 layers of width 160, binary calib: 9 candidates and about 135 SVDs of "
                "160x160, so dense SVD in both compensation stages dominates",
            n_layers=12, width=160, rows=1024, calib_format="bin",
            ratio=0.2, samples=0,
        ),
        Workload(
            name="deep-trials",
            why="32 layers of width 64, 2048-row binary calib, --baseline: 22 candidates of "
                "2x32 layer passes each, so forward passes and trial overhead dominate; no residual SVD",
            n_layers=32, width=64, rows=2048, calib_format="bin",
            ratio=0.3, samples=0, baseline=True,
        ),
        Workload(
            name="tall-calib",
            why="6 layers of width 128 with a 6144-row CSV calib subsampled to 4608 and "
                "f32 output: CSV parsing, capture and peak RSS dominate, SVD is negligible",
            n_layers=6, width=128, rows=6144, calib_format="csv",
            ratio=0.25, samples=4608, dtype="f32",
        ),
        # Not in BENCHMARK.json: the default demo, used by check_schema.py.
        Workload(
            name="smoke",
            why="default 8x64x256 demo, a seconds-long schema check",
            n_layers=8, width=64, rows=256, calib_format="bin",
            ratio=0.2, samples=0,
        ),
    )
}
