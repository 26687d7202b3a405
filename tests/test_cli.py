"""End-to-end command tests: exit codes, file outputs, determinism, and
consistency between the artifacts the commands produce."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resvd.calibration
import resvd.cli
import resvd.compensation
import resvd.containers
import resvd.csv_cache
import resvd.demo
import resvd.errors
import resvd.model
import resvd.oracle
import resvd.planner
import resvd.state_cache
from resvd.calibration import CalibrationSet
from resvd.cli import main
from resvd.containers import (
    load_calibration,
    load_model,
    load_plan,
    save_calibration_csv,
    save_model,
)
from resvd.model import forward


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def gen_demo(path: Path, layers=6, width=32, samples=64, seed=7) -> Path:
    rc = main(["gen-demo", "--out", str(path), "--layers", str(layers),
               "--width", str(width), "--samples", str(samples), "--seed", str(seed)])
    assert rc == 0
    return path


def overflowing_csv(demo: Path, dest: Path, cells: int, value: str = "1e308") -> Path:
    """``demo``'s calibration as CSV with the first ``cells`` values of row 1 set to ``value``."""
    save_calibration_csv(load_calibration(demo / "calib.bin"), dest)
    lines = dest.read_text().splitlines()
    row = lines[0].split(",")
    lines[0] = ",".join([value] * cells + row[cells:])
    dest.write_text("\n".join(lines) + "\n")
    return dest


def run_without_warnings(argv: list[str]) -> int:
    """``main(argv)``, asserting numpy raised no RuntimeWarning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc


# Runs ``resvd.cli`` as ``python -m resvd.cli <args>`` does, then writes to
# stderr, as its last line, the exit code and which modules that only some
# commands or inputs need were loaded.
IMPORT_PROBE = """
import json, runpy, sys
try:
    runpy.run_module("resvd.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
lazy = ("resvd.oracle", "resvd.demo", "resvd.csv_cache", "resvd.state_cache", "hashlib",
        "fractions")
print(json.dumps({"exit": code, "loaded": [m for m in lazy if m in sys.modules]}),
      file=sys.stderr)
"""


class TestGenDemo:
    def test_same_seed_byte_identical(self, tmp_path):
        gen_demo(tmp_path / "a", seed=3)
        gen_demo(tmp_path / "b", seed=3)
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        gen_demo(tmp_path / "a", seed=3)
        gen_demo(tmp_path / "b", seed=4)
        assert dir_bytes(tmp_path / "a") != dir_bytes(tmp_path / "b")

    def test_dims_match_request(self, tmp_path):
        gen_demo(tmp_path / "d", layers=5, width=16, samples=24)
        model = load_model(tmp_path / "d")
        assert model.n_layers == 5
        assert model.input_dim == 16
        assert all(e.rows == 16 and e.cols == 16
                   for layer in model.layers for e in layer.entries)
        calib = load_calibration(tmp_path / "d" / "calib.bin")
        assert calib.samples.shape == (24, 16)

    @pytest.mark.parametrize("extra, blocks", [([], 1), (["--samples", "8192"], 2)])
    def test_checksum_matches_forward(self, tmp_path, extra, blocks):
        # gen-demo hashes the last layer's output one block at a time; the
        # digest is that of the whole output forward returns
        assert main(["gen-demo", "--out", str(tmp_path / "d"), *extra]) == 0
        doc = json.loads((tmp_path / "d" / "checksum.json").read_text())
        model = load_model(tmp_path / "d")
        calib = load_calibration(tmp_path / "d" / "calib.bin")
        assert len(resvd.model.Workspace(calib.num_samples, model).blocks) == blocks
        digest = hashlib.sha256(forward(model, calib.samples)[-1].tobytes()).hexdigest()
        assert doc["output_sha256"] == digest
        assert doc["config"]["seed"] == 7

    @pytest.mark.parametrize("message", [
        "Unable to allocate 71.1 PiB for an array with shape (100000000, 100000000) "
        "and data type float64",
        "",
    ])
    def test_out_of_memory_is_one_line_exit_5(self, tmp_path, capsys, monkeypatch, message):
        # No array is allocated: the generator raises as numpy would.
        def generate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(resvd.demo, "generate", generate)
        capsys.readouterr()
        assert main(["gen-demo", "--out", str(tmp_path / "big")]) == 5
        assert capsys.readouterr() == ("", f"resvd: out of memory: {message}\n" if message
                                       else "resvd: out of memory\n")

    def test_unset_options_take_the_generator_defaults(self, tmp_path):
        assert main(["gen-demo", "--out", str(tmp_path / "d")]) == 0
        doc = json.loads((tmp_path / "d" / "checksum.json").read_text())
        assert doc["config"] == {"n_layers": 8, "width": 64, "samples": 256, "seed": 7}


class TestCompress:
    def test_writes_all_artifacts(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", str(out)])
        assert rc == 0
        assert (out / "manifest.json").is_file()
        assert (out / "plan.json").is_file()
        assert (out / "errors.csv").is_file()
        compressed = load_model(out)
        assert compressed.n_layers == 6

    def test_budget_identity_in_manifest(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
              "--ratio", "0.2", "--out", str(out)])
        meta = json.loads((out / "manifest.json").read_text())["meta"]["compression"]
        n_factored = sum(
            1 for layer in load_model(out).layers if layer.entries[0].is_factored
        )
        assert meta["k"] == n_factored
        assert math.isclose(meta["k"] * meta["layer_ratio"], 6 * 0.2, rel_tol=1e-15)
        # the plan artifact reconstructs R_l exactly: k * R_l == N * R_o as rationals
        plan_back = load_plan(out / "plan.json")
        assert plan_back.k * plan_back.layer_ratio_exact == Fraction(0.2) * 6

    def test_infeasible_ratio_exits_3(self, tmp_path):
        demo = gen_demo(tmp_path / "demo", layers=4)
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.99", "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_beta_zero_equals_baseline_run(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        args = ["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.25", "--out", str(out)]
        assert main(args + ["--beta", "0"]) == 0
        first = dir_bytes(out)
        assert main(args + ["--baseline"]) == 0
        assert dir_bytes(out) == first

    @pytest.mark.parametrize("order", ["baseline-first", "beta-first"])
    @pytest.mark.parametrize("command", ["plan", "compress"])
    def test_baseline_with_beta_is_a_usage_error(self, tmp_path, capsys, command, order):
        # --baseline means beta 0, so a --beta next to it would be dropped
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        flags = ["--baseline", "--beta", "0.3"]
        argv = [command, "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2", "--out", str(tmp_path / "out"),
                *(flags if order == "baseline-first" else flags[1:] + flags[:1])]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    def test_repeat_run_is_byte_identical(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        args = ["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2", "--seed", "5", "--out", str(out)]
        assert main(args) == 0
        first = dir_bytes(out)
        assert main(args) == 0
        assert dir_bytes(out) == first

    def test_each_quantity_computed_once(self, tmp_path, monkeypatch):
        demo = gen_demo(tmp_path / "demo", layers=6, width=16, samples=48)
        calls = {"capture": 0, "whiten": 0, "whitened_svd": []}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def svd(w, name="matrix"):
            if name.endswith(" (whitened)"):
                calls["whitened_svd"].append(name.removesuffix(" (whitened)"))
            return real_svd(w, name=name)

        real_svd = resvd.compensation.svd
        monkeypatch.setattr(resvd.planner, "capture_activations",
                            counting("capture", resvd.planner.capture_activations))
        monkeypatch.setattr(resvd.calibration, "whiten",
                            counting("whiten", resvd.calibration.whiten))
        monkeypatch.setattr(resvd.compensation, "svd", svd)
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0

        k_max = max(c["k"] for c in json.loads((out / "plan.json").read_text())["candidates"])
        tail = {f"layer{i}/w" for i in range(6 - k_max, 6)}
        assert calls["capture"] == 1
        assert calls["whiten"] == len(tail)  # one per tail matrix
        assert sorted(calls["whitened_svd"]) == sorted(tail)  # each tail matrix once

    def test_errors_csv_scores_the_winners_tail_after_the_plan(self, tmp_path, monkeypatch):
        # plan scores each candidate once, at its final layer; compress then
        # scores the winner's k tail layers once each through layerwise_error,
        # and the prefix the trial shares with the model scores nothing.
        demo = gen_demo(tmp_path / "demo", layers=6, width=16, samples=48)
        scored = []

        def squared_error(y, y_ref):
            scored.append(float(np.linalg.norm(y_ref)))
            return real(y, y_ref)

        real = resvd.model._squared_error
        monkeypatch.setattr(resvd.model, "_squared_error", squared_error)
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        doc = json.loads((out / "plan.json").read_text())
        ok = [row for row in doc["candidates"] if row["status"] == "ok"]
        assert len(ok) > 1
        norms = [float(np.linalg.norm(y))
                 for y in forward(load_model(demo), load_calibration(demo / "calib.bin").samples)]
        assert scored == [norms[-1]] * len(ok) + norms[-doc["k"]:]

    def test_f32_output(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", str(out), "--dtype", "f32"])
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert {m["dtype"] for layer in doc["layers"] for m in layer["matrices"]} == {"f32"}

    def test_f32_overflow_is_named_not_written_as_inf(self, tmp_path, capsys):
        # layer0 stays dense, and its weights, finite in float64, exceed the
        # float32 range: the run stops on it instead of writing inf.
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=32)
        tensor = demo / "layer0__w.bin"
        tensor.write_bytes((np.frombuffer(tensor.read_bytes(), dtype="<f8") * 1e40).tobytes())
        capsys.readouterr()
        rc = run_without_warnings(["compress", "--model", str(demo), "--calib",
                                   str(demo / "calib.bin"), "--ratio", "0.2",
                                   "--out", str(tmp_path / "out"), "--dtype", "f32"])
        assert rc == 4
        assert capsys.readouterr().err == ("resvd: numerical failure: layer0/w: a value "
                                           "overflows f32 and cannot be stored\n")

    @pytest.mark.parametrize("existing", [False, True])
    def test_unstorable_model_writes_no_file(self, tmp_path, capsys, existing):
        # layer1 stays dense and overflows f32 after layer0 was cast: neither
        # a new --out nor an existing model directory there gets any file.
        demo = gen_demo(tmp_path / "demo", layers=6, width=8, samples=32)
        tensor = demo / "layer1__w.bin"
        tensor.write_bytes((np.frombuffer(tensor.read_bytes(), dtype="<f8") * 1e40).tobytes())
        out = gen_demo(tmp_path / "out", seed=8) if existing else tmp_path / "out"
        before = dir_bytes(out) if existing else None
        capsys.readouterr()
        rc = run_without_warnings(["compress", "--model", str(demo), "--calib",
                                   str(demo / "calib.bin"), "--ratio", "0.2",
                                   "--out", str(out), "--dtype", "f32"])
        assert rc == 4
        assert capsys.readouterr().err == ("resvd: numerical failure: layer1/w: a value "
                                           "overflows f32 and cannot be stored\n")
        assert (dir_bytes(out) == before) if existing else not out.exists()

    def test_degenerate_tail_weights_write_finite_f32_tensors(self, tmp_path):
        # Tail weights of rank 1 and with all but two or one rows zero, at
        # ranks far above theirs: the whitened SVD has singular values at or
        # near 0, and every stored f32 tensor stays finite.
        demo = gen_demo(tmp_path / "demo")
        model = load_model(demo)
        rng = np.random.default_rng(5)
        width = model.input_dim
        weights = {3: np.outer(rng.standard_normal(width), rng.standard_normal(width)),
                   4: np.zeros((width, width)), 5: np.zeros((width, width))}
        weights[4][[0, 7]] = rng.standard_normal((2, width))
        weights[5][3] = rng.standard_normal(width)
        layers = tuple(dataclasses.replace(layer, entries=(
            dataclasses.replace(layer.entries[0], dense=weights[i]),)) if i in weights else layer
            for i, layer in enumerate(model.layers))
        save_model(dataclasses.replace(model, layers=layers), tmp_path / "degenerate")
        out = tmp_path / "out"
        assert run_without_warnings(["compress", "--model", str(tmp_path / "degenerate"),
                                     "--calib", str(demo / "calib.bin"), "--ratio", "0.2",
                                     "--dtype", "f32", "--out", str(out)]) == 0
        stored = load_model(out)
        assert any(e.is_factored for layer in stored.layers[3:] for e in layer.entries)
        for layer in stored.layers:
            for e in layer.entries:
                arrays = (e.factors.u_hat, e.factors.v_hat) if e.is_factored else (e.dense,)
                assert all(np.isfinite(a).all() for a in arrays), (layer.name, e.name)

    def test_default_dtype_writes_every_tensor_as_f64(self, tmp_path):
        # An f32 model compressed at the default --dtype: the prefix layers it
        # leaves dense are written as f64 too, as the manifest's config says.
        demo = gen_demo(tmp_path / "demo")
        save_model(load_model(demo), tmp_path / "m32", dtype="f32")
        out = tmp_path / "out"
        assert main(["compress", "--model", str(tmp_path / "m32"),
                     "--calib", str(demo / "calib.bin"), "--ratio", "0.2",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["meta"]["compression"]["config"]["out_dtype"] == "f64"
        kinds = {(m["kind"], m["dtype"]) for layer in doc["layers"] for m in layer["matrices"]}
        assert kinds == {("dense", "f64"), ("factored", "f64")}

    def test_missing_model_exits_2(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        rc = main(["compress", "--model", str(tmp_path / "nope"),
                   "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_corrupt_calibration_exits_2(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"ERCC" + b"\x01" * 10)
        rc = main(["compress", "--model", str(demo), "--calib", str(bad),
                   "--ratio", "0.2", "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("spelling", ["same", "dot"])
    def test_out_equal_to_model_is_refused_before_anything_is_written(self, tmp_path, capsys,
                                                                      spelling):
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        before = dir_bytes(demo)
        out = str(demo) if spelling == "same" else f"{demo}/."
        capsys.readouterr()
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", out])
        assert rc == 2
        assert capsys.readouterr() == ("", f"resvd: invalid configuration: --out {out} is the "
                                       "--model directory; compress does not overwrite its "
                                       "input\n")
        assert dir_bytes(demo) == before

    @pytest.mark.parametrize("target", ["calib.bin", "sub", "out/errors.csv", "out/calib.bin"])
    def test_out_onto_the_calibration_or_into_the_model_is_refused_before_loading(
            self, tmp_path, capsys, monkeypatch, target):
        # The calibration file, a new directory inside the model's, and a
        # directory holding the calibration, as a CSV named like the error
        # report compress writes or as ERCC: each exits 2 with one line
        # before either input is loaded, and every input keeps its bytes.
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        calib = demo / "calib.bin"
        if target.startswith("out/"):
            calib = tmp_path / target
            calib.parent.mkdir()
            if calib.suffix == ".csv":
                save_calibration_csv(load_calibration(demo / "calib.bin"), calib)
            else:
                shutil.copyfile(demo / "calib.bin", calib)
        before, held = dir_bytes(demo), calib.read_bytes()
        loaded = []
        monkeypatch.setattr(resvd.cli, "load_model", loaded.append)
        monkeypatch.setattr(resvd.cli, "load_calibration_auto", loaded.append)
        out = calib.parent if target.startswith("out/") else demo / target
        capsys.readouterr()
        rc = main(["compress", "--model", str(demo), "--calib", str(calib),
                   "--ratio", "0.2", "--out", str(out)])
        what = {"calib.bin": "is the --calib file",
                "sub": "is inside the --model directory"}.get(target, "holds the --calib file")
        assert rc == 2
        assert capsys.readouterr() == ("", f"resvd: invalid configuration: --out {out} {what}; "
                                       "compress does not overwrite its input\n")
        assert loaded == []
        assert dir_bytes(demo) == before and not (demo / "sub").exists()
        assert calib.read_bytes() == held and not (out / "manifest.json").exists()

    def test_bad_ratio_value_exits_2(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "1.5", "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_a_ratio_that_is_not_a_number_exits_2_naming_it(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo")
        capsys.readouterr()
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "abc", "--out", str(tmp_path / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("argument --ratio: not a number: 'abc'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["plan", "plan-all-rows", "compress", "analyze", "verify",
                                      "gen-demo"])
    def test_negative_seed_is_a_usage_error_naming_the_option(self, tmp_path, capsys, case):
        # Rejected while parsing, whether or not the seed would be used:
        # with --samples 0 no row is drawn, yet plan.json would record it.
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        calib = ["--calib", str(demo / "calib.bin")]
        argv = {
            "plan": ["plan", "--model", str(demo), "--ratio", "0.2", *calib, "--samples", "10"],
            "plan-all-rows": ["plan", "--model", str(demo), "--ratio", "0.2", *calib,
                              "--samples", "0"],
            "compress": ["compress", "--model", str(demo), "--ratio", "0.2", *calib,
                         "--samples", "0", "--out", str(tmp_path / "out")],
            "analyze": ["analyze", "--original", str(demo), "--compressed", str(demo), *calib],
            "verify": ["verify", "--trials", "1"],
            "gen-demo": ["gen-demo", "--out", str(tmp_path / "out")],
        }[case]
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("argument --seed: must be >= 0, got -1")
        assert not (tmp_path / "out").exists()

    def test_csv_calibration_accepted(self, tmp_path):
        demo = gen_demo(tmp_path / "demo", width=16, samples=24)
        calib = load_calibration(demo / "calib.bin")
        lines = [",".join("%.17g" % v for v in row) for row in calib.samples]
        (tmp_path / "c.csv").write_text("\n".join(lines) + "\n")
        out_bin = tmp_path / "out_bin"
        out_csv = tmp_path / "out_csv"
        base = ["compress", "--model", str(demo), "--ratio", "0.2"]
        assert main(base + ["--calib", str(demo / "calib.bin"), "--out", str(out_bin)]) == 0
        assert main(base + ["--calib", str(tmp_path / "c.csv"), "--out", str(out_csv)]) == 0
        a = json.loads((out_bin / "plan.json").read_text())
        b = json.loads((out_csv / "plan.json").read_text())
        assert a["chosen_error"] == b["chosen_error"]


@pytest.mark.parametrize("command, target", [("plan", "dir"), ("analyze", "dir"),
                                             ("compress", "file"), ("compress", "file/sub")])
def test_out_of_the_wrong_kind_is_refused_before_loading(tmp_path, capsys, monkeypatch,
                                                          command, target):
    # plan and analyze write a file, so an --out that is a directory is
    # refused; compress writes a directory, so an --out that is a file, or
    # lies under one, is refused. Each exits 2 with one line before any
    # input is loaded, and the directory and the file keep what they held.
    demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")

    def loaded(path):
        raise AssertionError(f"{path} was loaded")

    monkeypatch.setattr(resvd.cli, "load_model", loaded)
    monkeypatch.setattr(resvd.cli, "load_calibration_auto", loaded)
    inputs = (["--original", str(demo), "--compressed", str(demo)] if command == "analyze"
              else ["--model", str(demo), "--ratio", "0.2"])
    out = tmp_path / target
    capsys.readouterr()
    rc = main([command, *inputs, "--calib", str(demo / "calib.bin"), "--out", str(out)])
    what = {"dir": f"is a directory; {command} writes a file",
            "file": "is not a directory; compress writes a model directory",
            "file/sub": f"lies under {(tmp_path / 'file').resolve()}, which is not a directory; "
                        "compress writes a model directory"}[target]
    assert rc == 2
    assert capsys.readouterr() == ("", f"resvd: invalid configuration: --out {out} {what}\n")
    assert list((tmp_path / "dir").iterdir()) == []
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("target", ["dir", "missing/out", "file/out"])
@pytest.mark.parametrize("command", ["plan", "analyze", "verify"])
def test_a_file_out_that_cannot_be_written_is_refused_before_any_work(tmp_path, capsys,
                                                                      monkeypatch, command,
                                                                      target):
    # plan, analyze and verify write one file, so --out must not be a
    # directory and the directory it goes in must exist: a missing one, or
    # a regular file in its place, exits 2 with one line before any input
    # is loaded or any oracle runs, and nothing is created.
    demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")

    def ran(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(resvd.cli, "load_model", ran)
    monkeypatch.setattr(resvd.cli, "load_calibration_auto", ran)
    monkeypatch.setattr(resvd.oracle, "run_all", ran)
    calib = ["--calib", str(demo / "calib.bin")]
    inputs = {"plan": ["--model", str(demo), "--ratio", "0.2", *calib],
              "analyze": ["--original", str(demo), "--compressed", str(demo), *calib],
              "verify": ["--trials", "1"]}[command]
    out = tmp_path / target
    capsys.readouterr()
    rc = main([command, *inputs, "--out", str(out)])
    parent = out.parent.resolve()
    what = {"dir": f"is a directory; {command} writes a file",
            "missing/out": f"goes in {parent}, which does not exist; {command} writes a file there",
            "file/out": f"goes in {parent}, which is not a directory; "
                        f"{command} writes a file there"}[target]
    assert rc == 2
    assert capsys.readouterr() == ("", f"resvd: invalid configuration: --out {out} {what}\n")
    assert list((tmp_path / "dir").iterdir()) == []
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "file").read_text() == "kept\n"


MALFORMED_MANIFESTS = {
    "layers-not-a-list": lambda doc: doc.update(layers=3),
    "layer-not-an-object": lambda doc: doc.update(layers=[3]),
    "matrices-not-a-list": lambda doc: doc["layers"][0].update(matrices=5),
    "layer-name-not-a-string": lambda doc: doc["layers"][0].update(name=3),
    "matrix-name-not-a-string": lambda doc: doc["layers"][0]["matrices"][0].update(name=3),
    "rows-is-a-bool": lambda doc: doc["layers"][0]["matrices"][0].update(rows=True),
    "input-dim-is-a-string": lambda doc: doc.update(input_dim="16"),
    "input-dim-is-a-bool": lambda doc: doc.update(input_dim=True),
    "input-dim-mismatch": lambda doc: doc.update(input_dim=8),
}


class TestMalformedInput:
    @pytest.mark.parametrize("mutate", MALFORMED_MANIFESTS.values(),
                             ids=MALFORMED_MANIFESTS.keys())
    def test_manifest_is_a_one_line_format_error(self, tmp_path, capsys, mutate):
        demo = gen_demo(tmp_path / "demo", layers=4, width=16, samples=24)
        manifest = demo / "manifest.json"
        doc = json.loads(manifest.read_text())
        mutate(doc)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("resvd: format error:")

    @pytest.mark.parametrize("command", ["plan", "analyze"])
    def test_manifest_that_is_not_text_is_a_one_line_format_error(self, tmp_path, capsys,
                                                                  command):
        demo = gen_demo(tmp_path / "demo", layers=4, width=16, samples=24)
        manifest = demo / "manifest.json"
        manifest.write_bytes(b"\xff\xfe{")
        models = {"plan": ["--model", str(demo), "--ratio", "0.2"],
                  "analyze": ["--original", str(demo), "--compressed", str(demo)]}[command]
        capsys.readouterr()
        rc = main([command, *models, "--calib", str(demo / "calib.bin")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"resvd: format error: {manifest}: cannot be decoded as text (")

    def test_non_finite_tensor_exits_2(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo", layers=4, width=16, samples=24)
        tensor = demo / "layer1__w.bin"
        values = np.frombuffer(tensor.read_bytes(), dtype="<f8").copy()
        values[5] = math.nan
        tensor.write_bytes(values.tobytes())
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"resvd: format error: {demo / 'manifest.json'} [layer1]: tensor file "
                       "layer1__w.bin of matrix 'w' holds a non-finite value\n")

    def test_non_finite_csv_calibration_exits_2(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo", width=4, samples=8)
        calib = tmp_path / "c.csv"
        calib.write_text("1,2,3,4\n5,nan,7,8\n")
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(calib), "--ratio", "0.2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"resvd: format error: {calib}:2: non-finite value\n"

    def test_a_calibration_of_zero_bytes_is_one_short_line(self, tmp_path, capsys,
                                                             monkeypatch):
        # 3 MB of zero bytes is one CSV token that is not numeric; the
        # message shows the few of its bytes whose repr fits in 40 characters
        demo = gen_demo(tmp_path / "demo", width=4, samples=8)
        (tmp_path / "zeros.bin").write_bytes(bytes(3_000_000))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", "zeros.bin", "--ratio", "0.2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("resvd: format error: zeros.bin:1: not numeric (could not convert "
                       "string to float: b'" + "\\x00" * 9 + "'...)\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("command", ["plan", "compress", "analyze"])
    @pytest.mark.parametrize("rows, cols", [(2, 2), (300, 2), (300, 33)])
    def test_a_calibration_of_another_width_is_a_format_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, rows, cols):
        # Against a 32-wide model, a 2 x 2 CSV used to exit 3 (too few rows
        # for the kept ranks) and a 300-row one exit 1 (a width error from
        # the pass). The width is now checked once both inputs are loaded,
        # before any pass, rank check or cache key: exit 2, one line naming
        # both paths, and compress writes nothing.
        demo = gen_demo(tmp_path / "demo")
        compressed = tmp_path / "compressed"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(compressed)]) == 0
        calib = tmp_path / "c.csv"
        save_calibration_csv(CalibrationSet(samples=np.ones((rows, cols))), calib)

        def no_work(*args, **kwargs):
            raise AssertionError("a command ran past its width check")

        monkeypatch.setattr(resvd.cli, "plan", no_work)
        monkeypatch.setattr(resvd.cli, "layerwise_error", no_work)
        out = tmp_path / "out"
        if command == "analyze":
            argv = ["analyze", "--original", str(demo), "--compressed", str(compressed)]
        else:
            argv = [command, "--model", str(demo), "--ratio", "0.2"]
        argv += ["--calib", str(calib), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"resvd: format error: {calib}: calibration rows are "
                                           f"{cols} wide, but the model in {demo} takes inputs "
                                           "32 wide\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """A 3x6 demo in ``model/``, its compressed form in ``out/``, and ``calib.csv``."""
    root = tmp_path_factory.mktemp("pristine")
    model = gen_demo(root / "model", layers=3, width=6, samples=24)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compress", "--model", str(model), "--calib", str(model / "calib.bin"),
                     "--ratio", "0.2", "--out", str(root / "out")]) == 0
    save_calibration_csv(load_calibration(model / "calib.bin"), root / "calib.csv")
    return root


# Both manifests hold 3 layers of one matrix each; "rank" is on factored matrices only.
MANIFEST_PATHS = (
    [(key,) for key in ("format", "version", "input_dim", "meta", "layers")]
    + [("layers", i, key) for i in range(3) for key in ("name", "activation", "matrices")]
    + [("layers", i, "matrices", 0, key) for i in range(3)
       for key in ("name", "rows", "cols", "dtype", "kind", "file", "rank")]
)
DELETE = object()
WRONG_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2**40), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2),
                                                             st.integers(), max_size=2),
)
MANIFEST_MUTATIONS = st.tuples(
    st.just("manifest"), st.sampled_from(["model", "out"]),
    st.sampled_from(MANIFEST_PATHS), st.one_of(st.just(DELETE), WRONG_TYPED),
)
FILE_CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.sampled_from(["model", "out"]),
              st.integers(0, 2), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("header"), st.integers(0, 23), st.integers(1, 255)),
    st.tuples(st.just("csv"), st.integers(0, 23), st.integers(0, 5),
              st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])),
)


def _corrupt(root: Path, corruption) -> Path:
    """Apply one corruption under ``root`` and return the calibration file to use."""
    kind, *args = corruption
    if kind == "manifest":
        target, path, value = args
        manifest = root / target / "manifest.json"
        doc = json.loads(manifest.read_text())
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        if key in node or value is not DELETE:
            if value is DELETE:
                del node[key]
            else:
                node[key] = value
        manifest.write_text(json.dumps(doc))
    elif kind == "truncate":
        target, layer, keep = args
        tensor = root / target / f"layer{layer}__w.bin"
        data = tensor.read_bytes()
        tensor.write_bytes(data[: int(keep * len(data))])
    elif kind == "header":
        offset, mask = args
        calib = root / "model" / "calib.bin"
        data = bytearray(calib.read_bytes())
        data[offset] ^= mask
        calib.write_bytes(bytes(data))
    else:
        row, col, value = args
        calib = root / "calib.csv"
        lines = calib.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(value)
        lines[row] = ",".join(cells)
        calib.write_text("\n".join(lines) + "\n")
        return calib
    return root / "model" / "calib.bin"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _plan_and_analyze_end_cleanly(pristine: Path, corruption) -> None:
    # Whatever is corrupted, the CLI returns a documented exit code and
    # explains a failure in exactly one stderr line.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "w"
        shutil.copytree(pristine, root)
        calib = str(_corrupt(root, corruption))
        for argv in (
            ["plan", "--model", str(root / "model"), "--calib", calib, "--ratio", "0.2"],
            ["analyze", "--original", str(root / "model"),
             "--compressed", str(root / "out"), "--calib", calib],
        ):
            rc, err = _run(argv)
            assert rc in (0, 1, 2, 3, 4), (argv[0], rc, err)
            if rc != 0:
                assert len(err.splitlines()) == 1, (argv[0], err)


class TestCorruptInputProperty:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(corruption=MANIFEST_MUTATIONS)
    def test_manifest_mutations(self, pristine, corruption):
        _plan_and_analyze_end_cleanly(pristine, corruption)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(corruption=FILE_CORRUPTIONS)
    def test_tensor_header_and_csv_corruptions(self, pristine, corruption):
        _plan_and_analyze_end_cleanly(pristine, corruption)


class TestPlanCommand:
    def test_csv_ascending_and_matches_compress(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo")
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,layer_ratio,final_error"
        rows = [line.split(",") for line in lines[1:]]
        ks = [int(r[0]) for r in rows]
        assert ks == sorted(ks)

        out = tmp_path / "out"
        main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
              "--ratio", "0.2", "--seed", "3", "--out", str(out)])
        plan_doc = json.loads((out / "plan.json").read_text())
        best = min(rows, key=lambda r: float(r[2]))
        assert int(best[0]) == plan_doc["k"]
        assert float(best[2]) == plan_doc["chosen_error"]

    def test_single_candidate_single_row(self, tmp_path, capsys):
        # N=4 at a 0.65 budget leaves k=3 as the only tail that fits
        demo = gen_demo(tmp_path / "demo", layers=4, width=16, samples=24)
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.65"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("3,")

    def test_out_file(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        dest = tmp_path / "plan.csv"
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", str(dest)])
        assert rc == 0
        assert dest.read_text().startswith("k,layer_ratio,final_error\n")

    @pytest.mark.parametrize("target", ["calib.bin", "manifest.json", "new.csv"])
    def test_out_onto_an_input_is_refused_before_anything_is_written(self, tmp_path, capsys,
                                                                     target):
        # The calibration file, a file of the model and a new file in the
        # model's directory: each exits 2 with one line, and the inputs keep
        # their bytes.
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        before = dir_bytes(demo)
        out = demo / target
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", str(out)])
        what = "is the --calib file" if target == "calib.bin" else "is inside the --model directory"
        assert rc == 2
        assert capsys.readouterr() == ("", f"resvd: invalid configuration: --out {out} {what}; "
                                       "plan does not overwrite its input\n")
        assert dir_bytes(demo) == before

    @pytest.mark.parametrize("command", ["plan", "compress"])
    @pytest.mark.parametrize("calib", ["one-row csv", "--samples 1"])
    def test_one_calibration_row_is_refused_with_one_line(self, tmp_path, capsys, command,
                                                          calib):
        # 4 layers of width 8 at R_o = 0.2: both candidates keep rank 2, which
        # one row cannot measure, so no candidate is scored: exit 3.
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        if calib == "one-row csv":
            (tmp_path / "one.csv").write_text(",".join(["0.5"] * 8) + "\n")
            rows = ["--calib", str(tmp_path / "one.csv")]
        else:
            rows = ["--calib", str(demo / "calib.bin"), "--samples", "1"]
        out = ["--out", str(tmp_path / "out")] if command == "compress" else []
        capsys.readouterr()
        assert main([command, "--model", str(demo), *rows, "--ratio", "0.2", *out]) == 3
        assert capsys.readouterr() == ("", (
            "resvd: infeasible: layer2/w: calibration rows in use (1) do not exceed the kept "
            "rank 2, so its error would measure the ridge, not the compression\n"))
        assert not (tmp_path / "out").exists()

    def test_rows_just_above_the_kept_rank_plan(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        capsys.readouterr()
        assert main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--samples", "3", "--ratio", "0.2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "3"]
        assert not any(math.isnan(float(row.split(",")[2])) for row in rows)

    def test_infeasible_exits_3(self, tmp_path):
        demo = gen_demo(tmp_path / "demo", layers=4)
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.99"])
        assert rc == 3

    @pytest.mark.parametrize("command", ["plan", "compress"])
    def test_compressed_input_names_the_factored_entry(self, tmp_path, capsys, monkeypatch,
                                                       command):
        # The largest candidate tail holds factored entries, so the run stops
        # once, naming the first, instead of failing every candidate, and
        # before any cache key is hashed.
        demo = gen_demo(tmp_path / "demo")
        once = tmp_path / "once"
        calib = ["--calib", str(demo / "calib.bin"), "--ratio", "0.2"]
        assert main(["compress", "--model", str(demo), *calib, "--out", str(once)]) == 0
        first = 6 - json.loads((once / "plan.json").read_text())["k"]
        monkeypatch.setattr(resvd.state_cache, "key", None)  # a key would raise TypeError
        capsys.readouterr()
        out = ["--out", str(tmp_path / "twice")] if command == "compress" else []
        assert main([command, "--model", str(once), *calib, *out]) == 1
        assert capsys.readouterr().err == (f"resvd: error: entry layer{first}/w is already "
                                           "factored; compression expects a dense model\n")

    def test_dead_layer_is_named_before_whitening(self, tmp_path, capsys):
        # layer1 sees relu outputs (>= 0) through weights <= 0, so it outputs
        # all zeros, and so does every later layer: the model outputs nothing.
        demo = gen_demo(tmp_path / "demo", layers=5, width=12, samples=24)
        tensor = demo / "layer1__w.bin"
        values = np.frombuffer(tensor.read_bytes(), dtype="<f8")
        tensor.write_bytes((-np.abs(values)).tobytes())
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2"])
        err = capsys.readouterr().err
        assert rc == 4
        assert err == ("resvd: numerical failure: layer1: output is all zeros on the "
                       "calibration set, so the model outputs nothing to compress against\n")

    def test_overflowing_calibration_names_the_matrix(self, tmp_path, capsys):
        # One finite 1e308 overflows the Gram matrices of layer0, which no
        # candidate compresses and so is never whitened, and of layer1, the
        # first matrix that is; numpy must not warn (pytest would capture a
        # RuntimeWarning that stderr never shows).
        demo = gen_demo(tmp_path / "demo", layers=3, width=6, samples=24)
        calib = tmp_path / "calib.csv"
        save_calibration_csv(load_calibration(demo / "calib.bin"), calib)
        lines = calib.read_text().splitlines()
        lines[0] = ",".join(["1e308"] + lines[0].split(",")[1:])
        calib.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["plan", "--model", str(demo), "--calib", str(calib), "--ratio", "0.2"])
        err = capsys.readouterr().err
        assert rc == 4
        assert len(err.splitlines()) == 1
        assert "layer1/w" in err and "overflow" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflow_only_in_a_prefix_gram_matrix_plans(self, tmp_path, capsys):
        # A 1e200 in the calibration overflows only layer0's Gram matrix
        # (layer0's weights, scaled by 1e-200, bring its output back to
        # order one); no candidate compresses layer0, so nothing whitens it.
        demo = gen_demo(tmp_path / "demo", layers=3, width=6, samples=24)
        tensor = demo / "layer0__w.bin"
        tensor.write_bytes((np.frombuffer(tensor.read_bytes(), dtype="<f8") * 1e-200).tobytes())
        calib = overflowing_csv(demo, tmp_path / "calib.csv", cells=1, value="1e200")
        capsys.readouterr()
        rc = run_without_warnings(["plan", "--model", str(demo), "--calib", str(calib),
                                   "--ratio", "0.2"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "2"]


    def test_residual_eigh_failure_falls_back_to_the_svd(self, tmp_path, capsys, monkeypatch):
        # Every residual eigendecomposition fails: the SVD of the scaled
        # tail block gives the same residual factors, so the plan keeps
        # every candidate with the errors of the run that did not fail.
        demo = gen_demo(tmp_path / "demo", layers=3)
        argv = ["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2"]
        capsys.readouterr()
        assert main(argv) == 0
        want = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        calls = []

        def eigh(a):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))  # so the scan runs
        assert main(argv) == 0
        out, err = capsys.readouterr()
        got = [line.split(",") for line in out.splitlines()]
        assert calls and err == ""
        assert [row[:2] for row in got] == [row[:2] for row in want]
        np.testing.assert_allclose([float(row[2]) for row in got[1:]],
                                   [float(row[2]) for row in want[1:]], rtol=1e-9)

    def test_residual_eigh_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        # Every candidate's residual eigendecomposition fails, and so does
        # every route of the SVD it falls back to; the first candidate (k=1)
        # fails on the last layer's matrix, which is named.
        demo = gen_demo(tmp_path / "demo", layers=3)
        real_svd, failed = np.linalg.svd, []

        def eigh(a):
            failed.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        def svd(*args, **kwargs):  # the whitened SVDs run before any eigh
            if failed:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "svd", svd)
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2"])
        assert rc == 4
        assert capsys.readouterr().err == ("resvd: numerical failure: SVD failed to converge "
                                           "on layer2/w (residual fallback)\n")

    @pytest.mark.parametrize("fails", [1, 2])
    def test_svd_that_fails_to_converge_is_retried(self, tmp_path, capsys, monkeypatch, fails):
        # The first whitened SVD (layer1/w) fails once, then twice: the
        # transpose, then the QR route factors it, and the plan keeps every
        # candidate with the errors of the run that did not fail.
        demo = gen_demo(tmp_path / "demo", layers=3)
        argv = ["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2"]
        capsys.readouterr()
        assert main(argv) == 0
        want = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        real, calls = np.linalg.svd, []

        def svd(a, *args, **kwargs):
            calls.append(a.shape)
            if len(calls) <= fails:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        assert main(argv) == 0
        out, err = capsys.readouterr()
        got = [line.split(",") for line in out.splitlines()]
        assert err == ""
        assert [row[:2] for row in got] == [row[:2] for row in want]
        np.testing.assert_allclose([float(row[2]) for row in got[1:]],
                                   [float(row[2]) for row in want[1:]], rtol=1e-9)

    def test_svd_failing_every_route_is_one_line(self, tmp_path, capsys, monkeypatch):
        demo = gen_demo(tmp_path / "demo", layers=3)

        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2"])
        assert rc == 4
        assert capsys.readouterr().err == ("resvd: numerical failure: SVD failed to converge "
                                           "on layer1/w (whitened)\n")

    def test_overflowing_layer_output_is_named(self, tmp_path, capsys):
        # A first row of 1e308s overflows layer0's output while activations
        # are captured: one line names the matrix, and numpy does not warn.
        demo = gen_demo(tmp_path / "demo", layers=3, width=6, samples=24)
        calib = overflowing_csv(demo, tmp_path / "calib.csv", cells=6)
        capsys.readouterr()
        rc = run_without_warnings(["plan", "--model", str(demo), "--calib", str(calib),
                                   "--ratio", "0.2", "--samples", "0"])
        assert rc == 4
        assert capsys.readouterr().err == ("resvd: numerical failure: layer0/w: output "
                                           "overflows float64 on the calibration set\n")


class TestAnalyze:
    @pytest.mark.parametrize("target", ["demo/calib.bin", "demo/manifest.json",
                                        "out/errors.csv"])
    def test_out_onto_an_input_is_refused_before_anything_is_written(self, tmp_path, capsys,
                                                                     target):
        # The calibration file, a file of --original and one of --compressed:
        # each exits 2 with one line before anything is loaded, and every
        # input keeps its bytes.
        demo = gen_demo(tmp_path / "demo", layers=4, width=8, samples=24)
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        before = (dir_bytes(demo), dir_bytes(out))
        dest = tmp_path / target
        capsys.readouterr()
        rc = main(["analyze", "--original", str(demo), "--compressed", str(out),
                   "--calib", str(demo / "calib.bin"), "--out", str(dest)])
        what = {"demo/calib.bin": "is the --calib file",
                "demo/manifest.json": "is inside the --original directory",
                "out/errors.csv": "is inside the --compressed directory"}[target]
        assert rc == 2
        assert capsys.readouterr() == ("", f"resvd: invalid configuration: --out {dest} {what}; "
                                       "analyze does not overwrite its input\n")
        assert (dir_bytes(demo), dir_bytes(out)) == before

    def test_identical_models_all_zero(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo")
        capsys.readouterr()
        rc = main(["analyze", "--original", str(demo), "--compressed", str(demo),
                   "--calib", str(demo / "calib.bin")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layer_index,relative_error"
        assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])

    def test_prefix_zero_and_final_matches_plan(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
              "--ratio", "0.2", "--out", str(out)])
        plan_doc = json.loads((out / "plan.json").read_text())
        capsys.readouterr()
        rc = main(["analyze", "--original", str(demo), "--compressed", str(out),
                   "--calib", str(demo / "calib.bin")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        prefix = 6 - plan_doc["k"]
        assert all(v <= 1e-12 for v in vals[:prefix])
        assert all(v > 1e-12 for v in vals[prefix:])
        assert vals[-1] == plan_doc["chosen_error"]

    @staticmethod
    def _errors_csv_pair(tmp_path, compress_flags=(), sampling=()) -> tuple[bytes, bytes]:
        """compress's errors.csv (the winning trial's errors) and analyze's fresh CSV."""
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.25", "--dtype", "f64", "--out", str(out),
                     *compress_flags, *sampling]) == 0
        dest = tmp_path / "recheck.csv"
        assert main(["analyze", "--original", str(demo), "--compressed", str(out),
                     "--calib", str(demo / "calib.bin"), "--out", str(dest), *sampling]) == 0
        return (out / "errors.csv").read_bytes(), dest.read_bytes()

    def test_matches_errors_csv_artifact(self, tmp_path):
        stored, fresh = self._errors_csv_pair(tmp_path)
        assert stored == fresh

    def test_matches_errors_csv_artifact_baseline_subsampled(self, tmp_path):
        stored, fresh = self._errors_csv_pair(tmp_path, ["--baseline"],
                                              ["--samples", "40", "--seed", "3"])
        assert stored == fresh

    def test_overflowing_reference_norm_exits_4(self, tmp_path, capsys):
        # One 1e308 keeps every output finite but overflows layer0's output
        # norm; scored anyway, 0/inf would read as a perfect layer.
        demo = gen_demo(tmp_path / "demo", layers=3, width=6, samples=24)
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        calib = overflowing_csv(demo, tmp_path / "calib.csv", cells=1)
        capsys.readouterr()
        rc = run_without_warnings(["analyze", "--original", str(demo), "--compressed", str(out),
                                   "--calib", str(calib), "--samples", "0"])
        assert rc == 4
        assert capsys.readouterr() == ("", "resvd: numerical failure: layer0: output norm "
                                           "overflows float64 on the calibration set\n")

    def test_only_analyze_compares_the_shared_prefix_bit_for_bit(self, tmp_path, monkeypatch):
        # The trial compress scores holds the model's own prefix layers, so
        # it compares no weight; analyze loads both models from disk and
        # compares each prefix weight once, up to the first factored layer,
        # and still writes compress's bytes.
        demo = gen_demo(tmp_path / "demo")
        compared = []

        def same_bits(a, b):
            compared.append(a.shape)
            return real(a, b)

        real = resvd.model._same_bits
        monkeypatch.setattr(resvd.model, "_same_bits", same_bits)
        out, dest = tmp_path / "out", tmp_path / "a.csv"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        assert compared == []
        assert main(["analyze", "--original", str(demo), "--compressed", str(out),
                     "--calib", str(demo / "calib.bin"), "--out", str(dest)]) == 0
        k = json.loads((out / "plan.json").read_text())["k"]
        assert 6 - k >= 1
        assert len(compared) == 6 - k
        assert dest.read_bytes() == (out / "errors.csv").read_bytes()

    @pytest.mark.parametrize("differ", ["layers", "activation", "shape"])
    def test_skeleton_mismatch_is_an_error(self, tmp_path, capsys, monkeypatch, differ):
        # one format error naming both models, found before the rows load,
        # whether the layer count, one activation or one matrix shape differs
        a = gen_demo(tmp_path / "a", layers=4)
        b = tmp_path / "b"
        if differ == "layers":
            gen_demo(b, layers=5)
        elif differ == "shape":
            gen_demo(b, layers=4, width=16)
        else:
            model = load_model(a)
            last = dataclasses.replace(model.layers[-1], activation="relu")
            save_model(dataclasses.replace(model, layers=model.layers[:-1] + (last,)), b)
        monkeypatch.setattr(resvd.cli, "load_calibration_auto", None)
        capsys.readouterr()
        rc = main(["analyze", "--original", str(a), "--compressed", str(b),
                   "--calib", str(a / "calib.bin")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"resvd: format error: the model in {b} does not "
                                           "have the layers, matrix shapes and activations of "
                                           f"the model in {a}\n")

    def test_a_compressed_model_against_itself_has_no_error(self, tmp_path, capsys,
                                                            monkeypatch):
        # both models are read from disk, so every factored pair is compared
        # bit for bit; every layer matches, so no layer is walked twice and
        # every error is exactly 0.0
        demo = gen_demo(tmp_path / "demo", layers=4)
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        walked = []

        def in_step(compressed, original, x, ws):
            walked.append(len(compressed))
            return real(compressed, original, x, ws)

        real = resvd.model._squares_in_step
        monkeypatch.setattr(resvd.model, "_squares_in_step", in_step)
        capsys.readouterr()
        assert main(["analyze", "--original", str(out), "--compressed", str(out),
                     "--calib", str(demo / "calib.bin")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert [float(row.split(",")[1]) for row in rows] == [0.0] * 4
        assert walked and set(walked) == {0}


class TestVerify:
    def test_default_passes(self, tmp_path):
        dest = tmp_path / "v.json"
        rc = main(["verify", "--trials", "20", "--out", str(dest)])
        assert rc == 0
        doc = json.loads(dest.read_text())
        assert doc["passed"] is True
        assert len(doc["suites"]) == 3
        for suite in doc["suites"]:
            assert "max_violation" in suite
            assert "tolerance" in suite
            assert suite["passed"] is True
        assert doc["tool"]["name"] == "resvd"
        assert doc["config"] == {"trials": 20, "seed": 0, "out_path": str(dest)}

    def test_an_svd_that_fails_on_every_route_is_a_numerical_failure(self, capsys,
                                                                     monkeypatch):
        # LinAlgError subclasses ValueError; it must not read as a bad configuration.
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        capsys.readouterr()
        assert main(["verify", "--trials", "1"]) == 4
        assert capsys.readouterr() == ("", "resvd: numerical failure: SVD did not converge\n")

    def test_trials_zero_rejected(self):
        assert main(["verify", "--trials", "0"]) == 2

    def test_stdout_json(self, capsys):
        rc = main(["verify", "--trials", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "resvd-verify"


def failing_at(real, n: int, exc: BaseException, times: int = 1):
    """``real``, except that its ``n``-th call and the ``times - 1`` after it raise ``exc``."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        if n <= calls < n + times:
            raise exc
        return real(*args, **kwargs)

    return wrapper


class TestFaultInjection:
    # Each np.linalg routine the commands call fails at each call a clean run
    # makes, one call per run; so does each array the package allocates with
    # np.empty, by raising MemoryError without allocating. Every run either
    # recovers and writes no stderr, or ends in one stderr line with the
    # exit code the README documents. The rows run as one block and as
    # three, since the calibration pass whitens each layer after its last
    # block.
    ROUTINES = ("svd", "eigh", "cholesky", "inv", "qr")
    ROWS, WIDTH = 40, 8

    @pytest.fixture
    def argv(self, tmp_path, monkeypatch):
        # Each run's arguments come with a cache directory of its own, empty,
        # so every run calibrates and each fault below reaches its call.
        demo = gen_demo(tmp_path / "demo", layers=4, width=self.WIDTH, samples=self.ROWS)
        compressed = tmp_path / "compressed"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(compressed)]) == 0
        runs = itertools.count()

        def cold(args: list[str]) -> list[str]:
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache{next(runs)}"))
            return args

        planned = ["--model", str(demo), "--calib", str(demo / "calib.bin"), "--ratio", "0.2"]
        return {
            "plan": lambda: cold(["plan", *planned]),
            "compress": lambda: cold(["compress", *planned,
                                      "--out", str(tmp_path / f"o{next(runs)}")]),
            "analyze": lambda: cold(["analyze", "--original", str(demo), "--compressed",
                                     str(compressed), "--calib", str(demo / "calib.bin")]),
        }

    def run(self, capsys, argv, codes):
        capsys.readouterr()
        rc = main(argv)
        out, err = capsys.readouterr()
        if rc == 0:
            assert err == ""
        else:
            assert rc in codes and err.count("\n") == 1 and err.startswith("resvd: "), (rc, err)
        return rc

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("command", ["plan", "compress", "analyze"])
    def test_every_failure_is_one_line_with_its_exit_code(self, capsys, monkeypatch, argv,
                                                          command, blocks):
        # 40 rows of width 8 in blocks of at most 14 rows run as 14, 14 and 12
        monkeypatch.setattr(resvd.model, "BLOCK_BYTES",
                            8 * self.WIDTH * (self.ROWS if blocks == 1 else 14))
        skeleton = load_model(Path(argv["analyze"]()[2]))
        assert len(resvd.model.Workspace(self.ROWS, skeleton).blocks) == blocks
        counts = dict.fromkeys((*self.ROUTINES, "empty"), 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for name in self.ROUTINES:
                patch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
            patch.setattr(np, "empty", counting("empty", np.empty))
            assert self.run(capsys, argv[command](), ()) == 0
        assert counts["empty"] > 0
        assert (counts["svd"] > 0) == (command != "analyze")

        failed = set()
        for name in self.ROUTINES:
            for n in range(1, counts[name] + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, name, failing_at(
                        getattr(np.linalg, name), n, np.linalg.LinAlgError("injected")))
                    if self.run(capsys, argv[command](), (resvd.cli.EXIT_NUMERICAL,)):
                        failed.add(name)
        # a failed SVD is retried and a failed eigh falls back to one, but
        # whitening has no second route; nothing inverts its factor
        assert counts["inv"] == 0
        assert failed == ({"cholesky"} if command != "analyze" else set())
        for n in range(1, counts["empty"] + 1):
            with monkeypatch.context() as patch:
                patch.setattr(np, "empty", failing_at(np.empty, n, MemoryError("injected")))
                assert self.run(capsys, argv[command](), (resvd.cli.EXIT_MEMORY,)) == 5

    @pytest.mark.parametrize("command", ["plan", "compress"])
    def test_the_qr_route_factors_each_matrix_the_first_two_routes_fail_on(
            self, capsys, monkeypatch, argv, command):
        # np.linalg.svd fails at each call a clean run makes and at the next,
        # so the thin SVD and the transpose route both fail on that matrix and
        # the QR route factors it. Each run recovers with empty stderr; with
        # np.linalg.qr failing there too, each either still recovers, when
        # the failed SVD was a candidate's, or ends in one line with exit 4.
        clean = 0

        def counting(*args, **kwargs):
            nonlocal clean
            clean += 1
            return real_svd(*args, **kwargs)

        real_svd, real_qr = np.linalg.svd, np.linalg.qr
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting)
            assert self.run(capsys, argv[command](), ()) == 0
        assert clean > 0
        codes = set()
        for n, qr_fails in itertools.product(range(1, clean + 1), (False, True)):
            qr_calls = []

            def qr(*args, **kwargs):
                qr_calls.append(args)
                if qr_fails:
                    raise np.linalg.LinAlgError("injected")
                return real_qr(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", failing_at(
                    real_svd, n, np.linalg.LinAlgError("injected"), times=2))
                patch.setattr(np.linalg, "qr", qr)
                if qr_fails:
                    codes.add(self.run(capsys, argv[command](), (resvd.cli.EXIT_NUMERICAL,)))
                else:
                    assert self.run(capsys, argv[command](), ()) == 0
            assert len(qr_calls) == 1
        # a whitened SVD that fails every route ends the run; a candidate's
        # makes that candidate a failed row
        assert codes == {0, resvd.cli.EXIT_NUMERICAL}

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("command", ["plan", "compress"])
    @pytest.mark.parametrize("failure", ["create", "write", "truncate", "truncate U", "layer"])
    def test_a_spill_that_fails_is_one_line_and_leaves_nothing(
            self, tmp_path, capsys, monkeypatch, argv, command, blocks, failure):
        # The calibrated state, the model output among it, is kept in an
        # unlinked file under TMPDIR, and each layer's output is spilled to
        # one there. That file cannot be made, a block's write runs out of
        # space, the state's file is cut inside its output rows, after 20 of
        # them, or inside the first U the scan reads, once the calibration
        # pass has filled it, or the first layer's spill is cut to 20 rows
        # once the second layer's is made (the state's file is made first):
        # each ends the run with one line, exit 2, compress's --out never
        # exists, TMPDIR is left empty and the file's descriptor is closed.
        monkeypatch.setattr(resvd.model, "BLOCK_BYTES",
                            8 * self.WIDTH * (self.ROWS if blocks == 1 else 14))
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        spill = f"the model output spilled under {tmp}"
        if failure == "create":
            (tmp_path / "file").write_text("kept\n")
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file"))
            want = (f"[Errno 20] Not a directory: "
                    f"'the model output spilled under {tmp_path / 'file'}'")
        elif failure == "write":
            writes = []

            def pwrite(fd, data, at):
                writes.append(at)
                if len(writes) == blocks:  # the last block's
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real_pwrite(fd, data, at)

            real_pwrite = os.pwrite
            monkeypatch.setattr(os, "pwrite", pwrite)
            want = f"[Errno 28] No space left on device: '{spill}'"
        elif failure == "layer":
            spills = []

            def make_spill(what):
                spills.append(real_spill(what))
                if len(spills) == 3:  # the first layer's is full, and the second reads it
                    os.ftruncate(spills[1]._fd, 8 * self.WIDTH * 20)
                return spills[-1]

            real_spill = resvd.calibration.RowFile.spill
            monkeypatch.setattr(resvd.calibration.RowFile, "spill", make_spill)
        else:
            def calibrate(*args):
                state = real_calibrate(*args)
                os.ftruncate(state.output._fd, next(iter(state.matrices.values()))[1] + 8
                             if failure == "truncate U"
                             else state.output.offset + 8 * self.WIDTH * 20)
                return state

            real_calibrate = resvd.planner.calibrate
            monkeypatch.setattr(resvd.planner, "calibrate", calibrate)
        if failure in ("truncate", "layer"):
            want = (f"[Errno 5] {spill}: ends before row {self.ROWS if blocks == 1 else 28}; "
                    "it was truncated while in use")
        elif failure == "truncate U":
            want = f"[Errno 5] file ends early: '{spill}'"
        args = argv[command]()
        gc.collect()  # earlier runs' cycles may still hold descriptors
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
        capsys.readouterr()
        assert main(args) == 2
        if failure == "layer":
            assert len(spills) == 3
            spills.clear()
        assert capsys.readouterr() == ("", f"resvd: io error: {want}\n")
        assert command == "plan" or not Path(args[-1]).exists()
        assert list(tmp.iterdir()) == []
        gc.collect()
        assert fds == (len(os.listdir("/proc/self/fd")) if fds else 0)
        if failure == "create":
            assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("command", ["plan", "compress"])
    def test_a_state_entry_cut_short_while_in_use_is_one_line_and_leaves_nothing(
            self, tmp_path, capsys, monkeypatch, argv, command, blocks):
        # A warm run reads the model output from the calibrated-state entry
        # that the run before it wrote. Cut to 20 rows once calibrate has
        # checked it, the scan's first read past its end ends the run with
        # one line, exit 2, and compress's --out never exists.
        monkeypatch.setattr(resvd.model, "BLOCK_BYTES",
                            8 * self.WIDTH * (self.ROWS if blocks == 1 else 14))
        args = argv[command]()
        assert main(args) == 0
        if command == "compress":
            args[-1] += "-warm"
        [entry] = Path(os.environ["XDG_CACHE_HOME"], "resvd").glob("*.ercs")
        for kept in entry.parent.glob("*.ercp"):  # so the scan runs and reads the state
            kept.unlink()

        def calibrate(*args):
            state = real_calibrate(*args)
            assert state.output.path == entry  # a hit
            os.truncate(entry, state.output.offset + 8 * self.WIDTH * 20)
            return state

        real_calibrate = resvd.planner.calibrate
        monkeypatch.setattr(resvd.planner, "calibrate", calibrate)
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", f"resvd: io error: [Errno 5] {entry}: ends before row "
                f"{self.ROWS if blocks == 1 else 28}; it was truncated while in use\n")
        assert command == "plan" or not Path(args[-1]).exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    @pytest.mark.parametrize("failing", ["one", "every"])
    def test_a_failed_candidate_leaves_no_descriptor_open(self, capsys, monkeypatch, argv,
                                                          failing):
        # plan keeps each failed candidate's error for its table, and raises
        # the smallest candidate's when every one fails. With its traceback,
        # a kept error would hold plan's frame, so the calibrated state and
        # its files (the calibration's and the model output's spill) would
        # stay open until a garbage collection ran. The error here is raised
        # from another, as a failed factorisation's is.
        failed = []

        def scored(state, k, *args):
            if not failed or failing == "every":
                failed.append(k)
                try:
                    raise np.linalg.LinAlgError("injected")
                except np.linalg.LinAlgError as exc:
                    raise resvd.errors.NumericalError("injected") from exc
            return real(state, k, *args)

        real = resvd.planner._scored
        monkeypatch.setattr(resvd.planner, "_scored", scored)
        gc.collect()
        fds = len(os.listdir("/proc/self/fd"))
        capsys.readouterr()
        gc.disable()
        try:
            assert main(argv["plan"]()) == (0 if failing == "one" else 4)
            assert len(os.listdir("/proc/self/fd")) == fds
        finally:
            gc.enable()
        if failing == "one":
            [k] = failed
            rows = capsys.readouterr().out.splitlines()[1:]
            assert [row.split(",")[0] for row in rows if row.endswith(",nan")] == [str(k)]
        else:
            assert capsys.readouterr() == ("", "resvd: numerical failure: injected\n")

    @pytest.mark.parametrize("calib", ["bin", "csv"])
    @pytest.mark.parametrize("tmpdir", ["missing", "a file"])
    def test_a_tmpdir_that_cannot_be_used_is_one_line(
            self, tmp_path, capsys, monkeypatch, argv, calib, tmpdir):
        # A TMPDIR that is missing or is not a directory ends plan with one
        # line naming it, where tempfile would fall back to /tmp unsaid; no
        # temporary file is made anywhere else. A CSV whose cache cannot be
        # used is spilled there too, before the model output is.
        args = argv["plan"]()
        if calib == "csv":
            args[args.index("--calib") + 1] = str(tmp_path / "c.csv")
            save_calibration_csv(load_calibration(tmp_path / "demo" / "calib.bin"),
                                 tmp_path / "c.csv")
            (tmp_path / "cache").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        bad = tmp_path / "tmp"
        if tmpdir == "a file":
            bad.write_text("kept\n")
        monkeypatch.setenv("TMPDIR", str(bad))
        monkeypatch.setattr(tempfile, "tempdir", None)
        made = []

        def temporary_file(*args, **kwargs):
            made.append(kwargs.get("dir"))
            return real(*args, **kwargs)

        real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        capsys.readouterr()
        assert main(args) == 2
        what = "the model output" if calib == "bin" else f"the rows of {tmp_path / 'c.csv'}"
        error = ("[Errno 2] No such file or directory" if tmpdir == "missing"
                 else "[Errno 20] Not a directory")
        assert capsys.readouterr() == (
            "", f"resvd: io error: {error}: '{what} spilled under {bad}'\n")
        assert made == [str(bad)]
        assert tempfile.tempdir is None  # nothing asked tempfile where it falls back to
        assert (tmpdir == "missing") != bad.exists()
        assert calib == "bin" or (tmp_path / "cache").read_text() == ""


def run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m resvd.cli <argv>`` in a child process, on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "resvd.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_entry_freezes_the_heap_then_exits_with_mains_code(self, monkeypatch):
        monkeypatch.setattr(resvd.cli, "main", lambda: 3)
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as exc:
                resvd.cli.entry()
            assert exc.value.code == 3
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()

    def test_main_in_process_leaves_the_heap_unfrozen(self, tmp_path):
        demo = gen_demo(tmp_path / "demo", layers=3, width=8, samples=24)
        out = tmp_path / "out"
        before = gc.get_freeze_count()
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        assert main(["analyze", "--original", str(demo), "--compressed", str(out),
                     "--calib", str(demo / "calib.bin"), "--out", str(tmp_path / "a.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_child_analyze_prints_what_main_prints(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--out", str(out)]) == 0
        argv = ["analyze", "--original", str(demo), "--compressed", str(out),
                "--calib", str(demo / "calib.bin")]
        capsys.readouterr()
        assert main(argv) == 0
        in_process = capsys.readouterr().out
        proc = run_module(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == in_process

    def test_child_with_missing_model_exits_2_with_one_line(self, tmp_path):
        demo = gen_demo(tmp_path / "demo", layers=3, width=8, samples=24)
        proc = run_module(["plan", "--model", str(tmp_path / "nope"),
                           "--calib", str(demo / "calib.bin"), "--ratio", "0.2"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"resvd: format error: {tmp_path / 'nope'}: no manifest.json\n"


class TestCalibrationCache:
    def csv_demo(self, root: Path) -> tuple[Path, Path]:
        demo = gen_demo(root / "demo", layers=3, width=8, samples=24)
        save_calibration_csv(load_calibration(demo / "calib.bin"), root / "c.csv")
        return demo, root / "c.csv"

    def test_compress_directory_is_byte_identical_cold_and_warm(self, tmp_path, monkeypatch):
        demo, calib = self.csv_demo(tmp_path)
        out = tmp_path / "out"
        argv = ["compress", "--model", str(demo), "--calib", str(calib), "--ratio", "0.2",
                "--out", str(out)]
        cache = Path(os.environ["XDG_CACHE_HOME"], "resvd")
        assert not cache.exists()
        assert main(argv) == 0
        cold = dir_bytes(out)
        assert len(list(cache.glob("*.ercc"))) == 1
        shutil.rmtree(out)
        monkeypatch.setattr(resvd.csv_cache, "_parse_csv", None)  # warm: a parse would raise
        assert main(argv) == 0
        assert dir_bytes(out) == cold

    def test_unusable_location_still_loads_quietly(self, tmp_path, monkeypatch):
        # a regular file where the directory should be; tests run as root,
        # so a directory's permissions would not stop the write
        demo, calib = self.csv_demo(tmp_path)
        argv = ["plan", "--model", str(demo), "--calib", str(calib), "--ratio", "0.2"]
        want = run_module(argv)
        assert (want.returncode, want.stderr) == (0, "")
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        for _ in range(2):
            proc = run_module(argv)
            assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", want.stdout)
        assert (tmp_path / "file").read_text() == ""


def traced_peak(run) -> int:
    """The most bytes ``run()`` holds at once beyond what was held before it, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFileBackedCalibration:
    # An ERCC file, or a CSV's cache entry, is read block by block from the
    # descriptor its load opened. 40 rows of width 8 run as blocks of at
    # most 14 rows.
    ROWS, WIDTH = 40, 8

    @pytest.fixture
    def demo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resvd.model, "BLOCK_BYTES", 8 * self.WIDTH * 14)
        demo = gen_demo(tmp_path / "demo", layers=4, width=self.WIDTH, samples=self.ROWS)
        save_calibration_csv(load_calibration(demo / "calib.bin"), tmp_path / "c.csv")
        assert main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2", "--samples", "0", "--out", str(tmp_path / "ref")]) == 0
        return demo

    @staticmethod
    def argv(demo: Path, command: str, calib: Path, out: Path, samples: str) -> list[str]:
        rows = ["--calib", str(calib), "--samples", samples]
        if command == "analyze":
            return ["analyze", "--original", str(demo), "--compressed",
                    str(demo.parent / "ref"), *rows, "--out", str(out)]
        return [command, "--model", str(demo), *rows, "--ratio", "0.2", "--out", str(out)]

    @pytest.mark.parametrize("samples", ["0", "30"])
    @pytest.mark.parametrize("command, stage", [
        ("compress", "load"), ("compress", "scan"), ("compress", "errors"),
        ("plan", "scan"), ("analyze", "load"),
    ])
    def test_a_file_truncated_while_in_use_is_one_line_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, demo, command, stage, samples):
        # The file loses its last rows after the load checked it: after the
        # load, after the calibration pass, or before errors.csv is scored.
        # The first read past its end names it, exit 2, and --out never exists.
        calib = tmp_path / "c.bin"
        shutil.copy(demo / "calib.bin", calib)

        def truncating(owner, name, before):
            real = getattr(owner, name)

            def wrapper(*args):
                if before:
                    os.truncate(calib, 24 + 8 * self.WIDTH * 20 + 3)
                result = real(*args)
                if not before:
                    os.truncate(calib, 24 + 8 * self.WIDTH * 20 + 3)
                return result
            monkeypatch.setattr(owner, name, wrapper)

        hook = {"load": (resvd.cli, "load_calibration_auto", False),
                "scan": (resvd.planner, "calibrate", False),
                "errors": (resvd.cli, "layerwise_error", True)}[stage]
        truncating(*hook)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))  # so the scan runs
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(self.argv(demo, command, calib, out, samples)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"resvd: format error: {calib}: ends before row "), err
        assert err.endswith("; it was truncated while in use\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("change", ["unlink the cache entry", "replace the file"])
    def test_a_file_removed_or_replaced_while_in_use_serves_the_rows_it_loaded(
            self, tmp_path, monkeypatch, demo, change):
        # A warm CSV whose cache entry another process evicts, and an ERCC
        # file replaced by rename, both after the load: each run exits 0 with
        # the bytes of an undisturbed run.
        csv = change == "unlink the cache entry"
        calib = tmp_path / ("c.csv" if csv else "c.bin")
        if not csv:
            shutil.copy(demo / "calib.bin", calib)
        argv = self.argv(demo, "compress", calib, tmp_path / "out", "0")
        assert main(argv) == 0  # a CSV's first load parses and fills the cache
        want = dir_bytes(tmp_path / "out")
        shutil.rmtree(tmp_path / "out")
        cache = Path(os.environ["XDG_CACHE_HOME"], "resvd")
        assert bool(list(cache.glob("*.ercc"))) == csv
        monkeypatch.setattr(resvd.csv_cache, "_parse_csv", None)  # warm: a parse would raise

        def load(path):
            loaded = real(path)
            if csv:
                for entry in cache.glob("*.ercc"):
                    entry.unlink()
            else:
                (tmp_path / "other.bin").write_bytes(b"ERCC")
                (tmp_path / "other.bin").replace(calib)
            return loaded

        real = resvd.cli.load_calibration_auto
        monkeypatch.setattr(resvd.cli, "load_calibration_auto", load)
        assert main(argv) == 0
        assert dir_bytes(tmp_path / "out") == want

    @pytest.mark.parametrize("samples", ["0", "30"])
    @pytest.mark.parametrize("command", ["plan", "compress", "analyze"])
    @pytest.mark.parametrize("source", ["ercc", "warm csv"])
    def test_no_pass_reads_the_whole_set(self, tmp_path, monkeypatch, demo, command, source,
                                         samples):
        calib = demo / "calib.bin" if source == "ercc" else tmp_path / "c.csv"
        if source == "warm csv":
            assert main(self.argv(demo, "plan", calib, tmp_path / "cold.csv", samples)) == 0
        real = resvd.calibration.CalibrationSet.samples

        def samples_of(calib_set):
            if calib_set._file is not None:
                raise AssertionError("a pass read every row of a file-backed set")
            return real.fget(calib_set)

        monkeypatch.setattr(resvd.calibration.CalibrationSet, "samples", property(samples_of))
        assert main(self.argv(demo, command, calib, tmp_path / "out", samples)) == 0

    def test_memory_does_not_grow_with_the_rows(self, tmp_path, monkeypatch):
        # One and eight blocks of rows, a block being one chunk of the load's
        # check: neither analyze nor plan, load included, holds more at 8x
        # the rows; plan spills its model output to a file.
        width = 16
        per_block = resvd.calibration.READ_CHUNK_BYTES // (8 * width)
        monkeypatch.setattr(resvd.model, "BLOCK_BYTES", 8 * width * per_block)
        peaks = {}
        for times in (1, 8):
            demo = gen_demo(tmp_path / f"demo{times}", layers=8, width=width,
                            samples=times * per_block)
            rows = ["--calib", str(demo / "calib.bin"), "--samples", "0"]
            if times == 1:
                assert main(["compress", "--model", str(demo), *rows, "--ratio", "0.2",
                             "--out", str(tmp_path / "ref")]) == 0
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache{times}"))  # scans
            peaks[times] = {
                "analyze": traced_peak(lambda: main(
                    ["analyze", "--original", str(demo), "--compressed", str(tmp_path / "ref"),
                     *rows, "--out", str(tmp_path / "a.csv")])),
                "plan": traced_peak(lambda: main(
                    ["plan", "--model", str(demo), *rows, "--ratio", "0.2",
                     "--out", str(tmp_path / "p.csv")])),
            }
        # the rows added are 7 blocks; what else moves is tens of KiB of
        # Python objects, whichever way
        block = 8 * width * per_block
        slack = block // 8
        assert peaks[8]["analyze"] < peaks[1]["analyze"] + slack, peaks
        assert peaks[8]["plan"] < peaks[1]["plan"] + slack, peaks


class TestBlasThreads:
    def test_plan_agrees_across_blas_thread_counts(self, tmp_path, monkeypatch):
        # Output bytes hold for one numpy build at one BLAS thread count;
        # across thread counts the plan must agree up to rounding.
        demo = tmp_path / "demo"
        assert main(["gen-demo", "--out", str(demo)]) == 0  # the default 8x64 demo
        tables = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            proc = run_module(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                               "--ratio", "0.2"])
            assert (proc.returncode, proc.stderr) == (0, ""), threads
            tables[threads] = [(int(k), float(ratio), float(error)) for k, ratio, error
                               in (line.split(",") for line in proc.stdout.splitlines()[1:])]
        one, two = tables["1"], tables["2"]
        assert [(k, r, math.isnan(e)) for k, r, e in one] == \
               [(k, r, math.isnan(e)) for k, r, e in two]
        chosen = [min((e, k) for k, _, e in table if not math.isnan(e))[1] for table in (one, two)]
        assert chosen[0] == chosen[1]
        for (_, _, a), (_, _, b) in zip(one, two):
            assert math.isnan(a) or abs(a - b) <= 1e-12 * abs(a)


class TestTopLevel:
    def test_no_args_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_cli_import_loads_no_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, resvd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_each_command_imports_only_what_it_runs(self, tmp_path):
        # Each command runs as ``python -m resvd.cli`` would and reports which
        # of the modules only some commands need it loaded. On a binary
        # calibration, plan and compress load the calibrated-state cache and
        # hashlib to key it, and analyze loads neither; verify and gen-demo
        # load theirs, which shows the probe sees them.
        demo = gen_demo(tmp_path / "demo", layers=3, width=8, samples=24)
        calib, out = str(demo / "calib.bin"), str(tmp_path / "out")
        planned = ["--model", str(demo), "--calib", calib, "--ratio", "0.2"]
        runs = {
            "plan": ["plan", *planned],
            "compress": ["compress", *planned, "--out", out],
            "analyze": ["analyze", "--original", str(demo), "--compressed", out,
                        "--calib", calib],
            "verify": ["verify", "--trials", "2"],
            "gen-demo": ["gen-demo", "--out", str(tmp_path / "gen"), "--layers", "2",
                         "--width", "4", "--samples", "4"],
        }
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        loaded = {}
        for command, argv in runs.items():  # compress writes what analyze reads
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                                  capture_output=True, text=True, env=env)
            report = json.loads(proc.stderr.splitlines()[-1])
            assert report["exit"] == 0, (command, proc.stderr)
            loaded[command] = report["loaded"]
        assert loaded["plan"] == loaded["compress"] == ["resvd.state_cache", "hashlib"]
        assert loaded["analyze"] == []
        assert "resvd.oracle" in loaded["verify"]
        assert {"resvd.demo", "hashlib"} <= set(loaded["gen-demo"])

    def test_console_script_version(self):
        out = subprocess.run([sys.executable, "-m", "resvd.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "resvd" in out.stdout

    def test_samples_flag_subsamples(self, tmp_path, capsys):
        demo = gen_demo(tmp_path / "demo", samples=64)
        base = ["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2"]
        capsys.readouterr()
        assert main(base + ["--samples", "16", "--seed", "1"]) == 0
        small = capsys.readouterr().out
        assert main(base + ["--samples", "0"]) == 0
        full = capsys.readouterr().out
        assert small != full  # fewer rows, different whitening
        assert main(base + ["--samples", "16", "--seed", "1"]) == 0
        assert capsys.readouterr().out == small  # same seed, same subsample
