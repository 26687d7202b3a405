"""End-to-end command tests: exit codes, file outputs, determinism, and
consistency between the artifacts the commands produce."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resvd.calibration
import resvd.compensation
import resvd.planner
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

    def test_checksum_matches_forward(self, tmp_path):
        gen_demo(tmp_path / "d")
        doc = json.loads((tmp_path / "d" / "checksum.json").read_text())
        model = load_model(tmp_path / "d")
        calib = load_calibration(tmp_path / "d" / "calib.bin")
        digest = hashlib.sha256(forward(model, calib.samples)[-1].tobytes()).hexdigest()
        assert doc["output_sha256"] == digest
        assert doc["config"]["seed"] == 7


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

    def test_f32_output(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        out = tmp_path / "out"
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2", "--out", str(out), "--dtype", "f32"])
        assert rc == 0
        model = load_model(out)
        assert all(e.store_dtype == "f32"
                   for layer in model.layers for e in layer.entries)

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

    def test_default_dtype_writes_every_tensor_as_f64(self, tmp_path):
        # An f32 model compressed at the default --dtype: the prefix layers it
        # leaves dense are written as f64 too, as the manifest's config says.
        demo = gen_demo(tmp_path / "demo")
        model = load_model(demo)
        save_model(dataclasses.replace(model, layers=tuple(
            dataclasses.replace(layer, entries=tuple(
                dataclasses.replace(e, store_dtype="f32") for e in layer.entries))
            for layer in model.layers)), tmp_path / "m32")
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

    def test_bad_ratio_value_exits_2(self, tmp_path):
        demo = gen_demo(tmp_path / "demo")
        rc = main(["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "1.5", "--out", str(tmp_path / "out")])
        assert rc == 2

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

    def test_infeasible_exits_3(self, tmp_path):
        demo = gen_demo(tmp_path / "demo", layers=4)
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.99"])
        assert rc == 3

    @pytest.mark.parametrize("command", ["plan", "compress"])
    def test_compressed_input_names_the_factored_entry(self, tmp_path, capsys, command):
        # The largest candidate tail holds factored entries, so the run stops
        # once, naming the first, instead of failing every candidate.
        demo = gen_demo(tmp_path / "demo")
        once = tmp_path / "once"
        calib = ["--calib", str(demo / "calib.bin"), "--ratio", "0.2"]
        assert main(["compress", "--model", str(demo), *calib, "--out", str(once)]) == 0
        first = 6 - json.loads((once / "plan.json").read_text())["k"]
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


    def test_residual_eigh_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        # Every candidate's residual eigendecomposition fails; the first
        # candidate (k=1) fails on the last layer's matrix, which is named.
        demo = gen_demo(tmp_path / "demo", layers=3)

        def eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        capsys.readouterr()
        rc = main(["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                   "--ratio", "0.2"])
        assert rc == 4
        assert capsys.readouterr().err == ("resvd: numerical failure: eigendecomposition "
                                           "failed to converge on layer2/w (residual)\n")

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

    def test_skeleton_mismatch_is_an_error(self, tmp_path):
        a = gen_demo(tmp_path / "a", layers=4)
        b = gen_demo(tmp_path / "b", layers=5)
        rc = main(["analyze", "--original", str(a), "--compressed", str(b),
                   "--calib", str(a / "calib.bin")])
        assert rc != 0


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

    def test_trials_zero_rejected(self):
        assert main(["verify", "--trials", "0"]) == 2

    def test_stdout_json(self, capsys):
        rc = main(["verify", "--trials", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "resvd-verify"


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
