"""Container tests: byte-identical round trips, header validation, and
hand-built binary fixtures."""

from __future__ import annotations

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resvd.calibration import CalibrationSet
from resvd.containers import (
    ERROR_CSV_HEADER,
    _load_csv_fast,
    _load_csv_lines,
    load_calibration,
    load_calibration_auto,
    load_calibration_csv,
    load_error_report,
    load_model,
    load_plan,
    save_calibration,
    save_calibration_csv,
    save_error_report,
    save_model,
    save_plan,
)
from resvd.errors import FormatError
from resvd.linalg import FactorPair
from resvd.model import Layer, MatrixEntry, SequentialModel, forward
from resvd.planner import CandidateResult, CompressionPlan


def small_model(rng, store_dtype="f64"):
    w0 = rng.standard_normal((6, 4))
    u = rng.standard_normal((5, 2))
    v = rng.standard_normal((2, 6))
    layers = (
        Layer(
            name="front",
            entries=(
                MatrixEntry(name="w", rows=6, cols=4, dense=w0, store_dtype=store_dtype),
            ),
            activation="relu",
        ),
        Layer(
            name="back",
            entries=(
                MatrixEntry(
                    name="w",
                    rows=5,
                    cols=6,
                    factors=FactorPair(u_hat=u, v_hat=v, rank=2),
                    store_dtype=store_dtype,
                ),
            ),
            activation="identity",
        ),
    )
    return SequentialModel(layers=layers, input_dim=4, meta={"origin": "test"})


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# CSV files: well-formed rows of numbers in the forms a writer might use,
# the three newline conventions, and in about half the files one flaw: a
# malformed token, a ragged row, a whitespace-only line, a byte on which
# loadtxt and str.splitlines disagree, or a byte that is not UTF-8.
_CSV_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1 ", "\t2", "+1e3", ".5", "5.", "-0.0", "1E-320"]),
)
_CSV_FLAWS = st.one_of(
    st.tuples(st.just("token"), st.sampled_from(
        ["", "1_0", "0x10", "1e", "oops", "1e999", "-inf", "nan", "1 2", "\u0661"])),
    st.tuples(st.just("line"), st.sampled_from(["1,2,3,4", " ", "\t ", "\x0c"])),
    st.tuples(st.just("char"), st.sampled_from(
        ["\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\ufeff"])),
    st.just(("bytes", "\xff")),
)


@st.composite
def csv_files(draw) -> bytes:
    cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_CSV_NUMBER, min_size=cols, max_size=cols), max_size=5))
    lines = [",".join(row) for row in rows] + draw(st.sampled_from([[], [""]]))
    kind, flaw = draw(st.one_of(st.just((None, None)), _CSV_FLAWS))
    at = draw(st.integers(0, len(lines)))
    if kind == "token" and rows:
        lines[at % len(rows)] = ",".join([flaw] + rows[at % len(rows)][1:])
    elif kind == "line":
        lines.insert(at, flaw)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(line + newline for line in lines)
    if kind == "char":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + flaw + text[at:]
    data = text.encode()
    return data + b"\xff" if kind == "bytes" else data


def _csv_outcome(load, path):
    try:
        samples = load(path)
    except FormatError as exc:
        return "error", str(exc)
    return samples.shape, samples.tobytes()


class TestModelDir:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(0)
        model = small_model(rng)
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.input_dim == 4
        assert back.meta == {"origin": "test"}
        assert [l.name for l in back.layers] == ["front", "back"]
        assert back.layers[0].activation == "relu"
        np.testing.assert_array_equal(back.layers[0].entries[0].dense,
                                      model.layers[0].entries[0].dense)
        fp = back.layers[1].entries[0].factors
        np.testing.assert_array_equal(fp.u_hat, model.layers[1].entries[0].factors.u_hat)
        np.testing.assert_array_equal(fp.v_hat, model.layers[1].entries[0].factors.v_hat)
        assert fp.rank == 2

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        model = small_model(rng)
        save_model(model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_f32_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        model = small_model(rng, store_dtype="f32")
        save_model(model, tmp_path / "a")
        back = load_model(tmp_path / "a")
        assert back.layers[0].entries[0].store_dtype == "f32"
        assert back.layers[0].entries[0].dense.dtype == np.float64
        save_model(back, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_f32_files_are_half_size(self, tmp_path):
        rng = np.random.default_rng(3)
        save_model(small_model(rng, "f64"), tmp_path / "a")
        save_model(small_model(rng, "f32"), tmp_path / "b")
        a = (tmp_path / "a" / "front__w.bin").stat().st_size
        b = (tmp_path / "b" / "front__w.bin").stat().st_size
        assert a == 2 * b == 6 * 4 * 8

    def test_loaded_model_runs_forward(self, tmp_path):
        rng = np.random.default_rng(4)
        model = small_model(rng)
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(forward(back, x)[-1], forward(model, x)[-1],
                                   rtol=0, atol=0)

    def test_manifest_is_deterministic_json(self, tmp_path):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        save_model(model, tmp_path / "m")
        text = (tmp_path / "m" / "manifest.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert doc["format"] == "resvd-model"
        assert doc["version"] == 1

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "m").mkdir()
        with pytest.raises(FormatError):
            load_model(tmp_path / "m")

    def test_bad_json(self, tmp_path):
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "manifest.json").write_text("{nope")
        with pytest.raises(FormatError):
            load_model(tmp_path / "m")

    def test_wrong_format_tag(self, tmp_path):
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "manifest.json").write_text(json.dumps({"format": "other",
                                                                  "version": 1}))
        with pytest.raises(FormatError):
            load_model(tmp_path / "m")

    def test_missing_tensor_file(self, tmp_path):
        rng = np.random.default_rng(6)
        save_model(small_model(rng), tmp_path / "m")
        (tmp_path / "m" / "front__w.bin").unlink()
        with pytest.raises(FormatError, match="missing"):
            load_model(tmp_path / "m")

    def test_truncated_tensor_file(self, tmp_path):
        # A cut of whole values fails the size check; a cut of 3 bytes leaves
        # a partial value, which must name the file and the matrix too.
        rng = np.random.default_rng(7)
        save_model(small_model(rng), tmp_path / "m")
        blob = (tmp_path / "m" / "front__w.bin").read_bytes()
        for cut, message in ((8, "file holds"),
                             (3, r"tensor file front__w\.bin of matrix 'w' holds \d+ bytes")):
            (tmp_path / "m" / "front__w.bin").write_bytes(blob[:-cut])
            with pytest.raises(FormatError, match=message):
                load_model(tmp_path / "m")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("store_dtype", ["f64", "f32"])
    @pytest.mark.parametrize("fname", ["front__w.bin", "back__w.bin"])  # dense, factored
    def test_non_finite_tensor_rejected(self, tmp_path, bad, store_dtype, fname):
        rng = np.random.default_rng(11)
        save_model(small_model(rng, store_dtype), tmp_path / "m")
        path = tmp_path / "m" / fname
        dtype = {"f64": "<f8", "f32": "<f4"}[store_dtype]
        values = np.frombuffer(path.read_bytes(), dtype=dtype).copy()
        values[3] = bad
        path.write_bytes(values.tobytes())
        with pytest.raises(FormatError,
                           match=rf"tensor file {fname} of matrix 'w' holds a non-finite value"):
            load_model(tmp_path / "m")

    def test_unknown_activation(self, tmp_path):
        rng = np.random.default_rng(8)
        save_model(small_model(rng), tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        doc["layers"][0]["activation"] = "tanh"
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="activation"):
            load_model(tmp_path / "m")

    def test_bad_rank_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        save_model(small_model(rng), tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert doc["layers"][1]["matrices"][0]["kind"] == "factored"
        doc["layers"][1]["matrices"][0]["rank"] = 99
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="rank"):
            load_model(tmp_path / "m")

    def test_traversal_file_names_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        save_model(small_model(rng), tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        doc["layers"][0]["matrices"][0]["file"] = "../outside.bin"
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="file name"):
            load_model(tmp_path / "m")


class TestCalibrationContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        calib = CalibrationSet(samples=rng.standard_normal((17, 5)))
        save_calibration(calib, tmp_path / "c.bin")
        back = load_calibration(tmp_path / "c.bin")
        np.testing.assert_array_equal(back.samples, calib.samples)

    def test_header_layout_is_exact(self, tmp_path):
        calib = CalibrationSet(samples=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        save_calibration(calib, tmp_path / "c.bin")
        raw = (tmp_path / "c.bin").read_bytes()
        assert raw[:4] == b"ERCC"
        version, rows, cols = struct.unpack_from("<IQQ", raw, 4)
        assert (version, rows, cols) == (1, 3, 2)
        assert raw[24:] == np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).tobytes()

    def test_hand_built_file_loads(self, tmp_path):
        payload = np.arange(6, dtype="<f8")
        blob = struct.pack("<4sIQQ", b"ERCC", 1, 2, 3) + payload.tobytes()
        (tmp_path / "c.bin").write_bytes(blob)
        back = load_calibration(tmp_path / "c.bin")
        np.testing.assert_array_equal(back.samples, payload.reshape(2, 3))

    def test_bad_magic(self, tmp_path):
        (tmp_path / "c.bin").write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_calibration(tmp_path / "c.bin")

    def test_bad_version(self, tmp_path):
        blob = struct.pack("<4sIQQ", b"ERCC", 9, 1, 1) + b"\x00" * 8
        (tmp_path / "c.bin").write_bytes(blob)
        with pytest.raises(FormatError, match="version"):
            load_calibration(tmp_path / "c.bin")

    def test_size_mismatch(self, tmp_path):
        blob = struct.pack("<4sIQQ", b"ERCC", 1, 2, 3) + b"\x00" * 40
        (tmp_path / "c.bin").write_bytes(blob)
        with pytest.raises(FormatError, match="payload"):
            load_calibration(tmp_path / "c.bin")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "c.bin").write_bytes(b"ER")
        with pytest.raises(FormatError, match="short"):
            load_calibration(tmp_path / "c.bin")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        payload = np.arange(6, dtype="<f8")
        payload[4] = bad
        blob = struct.pack("<4sIQQ", b"ERCC", 1, 2, 3) + payload.tobytes()
        (tmp_path / "c.bin").write_bytes(blob)
        with pytest.raises(FormatError, match=r"c\.bin: row 2 holds a non-finite value"):
            load_calibration(tmp_path / "c.bin")

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        calib = CalibrationSet(samples=rng.standard_normal((9, 4)))
        save_calibration_csv(calib, tmp_path / "c.csv")
        back = load_calibration_csv(tmp_path / "c.csv")
        np.testing.assert_array_equal(back.samples, calib.samples)

    def test_csv_ragged_rows(self, tmp_path):
        (tmp_path / "c.csv").write_text("1,2,3\n4,5\n")
        with pytest.raises(FormatError, match="columns"):
            load_calibration_csv(tmp_path / "c.csv")

    def test_csv_non_numeric(self, tmp_path):
        (tmp_path / "c.csv").write_text("1,2\n3,oops\n")
        with pytest.raises(FormatError, match="numeric"):
            load_calibration_csv(tmp_path / "c.csv")

    def test_not_text_and_not_a_container(self, tmp_path):
        # a container whose magic is damaged falls through to the CSV reader
        (tmp_path / "c.bin").write_bytes(b"ERCX" + b"\xff" * 20)
        with pytest.raises(FormatError, match="neither an ERCC container nor a text CSV"):
            load_calibration_auto(tmp_path / "c.bin")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_csv_non_finite_rejected(self, tmp_path, token):
        # the blank line makes the file line (3) differ from the row index (2)
        (tmp_path / "c.csv").write_text(f"1,2\n\n3,{token}\n")
        with pytest.raises(FormatError, match=r"c\.csv:3: non-finite value"):
            load_calibration_csv(tmp_path / "c.csv")

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=csv_files())
    def test_csv_fast_path_agrees_with_the_line_loop(self, data):
        # Through the fast path or its fallback, every file loads to the
        # line loop's array or fails with the line loop's message.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            path.write_bytes(data)
            want = _csv_outcome(_load_csv_lines, path)
            fast = _load_csv_fast(path)
            if fast is not None:
                assert (fast.shape, fast.tobytes()) == want
            assert _csv_outcome(lambda p: load_calibration_csv(p).samples, path) == want

    @pytest.mark.parametrize("text", ["1,2\n3,4\n", "1,2\r\n\n3,4", "5", "1\n2\n", " 1 ,\t2\r"])
    def test_csv_fast_path_takes_plain_files(self, tmp_path, text):
        (tmp_path / "c.csv").write_text(text, newline="")
        fast = _load_csv_fast(tmp_path / "c.csv")
        assert fast is not None
        np.testing.assert_array_equal(fast, _load_csv_lines(tmp_path / "c.csv"))

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_csv_line_separator_inside_a_row_is_the_line_loops_call(self, tmp_path, sep):
        # loadtxt reads "1<sep>,2" as one row; the line loop sees the lines
        # "1" and ",2" and rejects the second
        (tmp_path / "c.csv").write_text(f"1{sep},2\n", newline="")
        assert _load_csv_fast(tmp_path / "c.csv") is None
        with pytest.raises(FormatError, match=r"c\.csv:2: not numeric"):
            load_calibration_csv(tmp_path / "c.csv")

    def test_csv_writer_matches_the_per_value_format(self, tmp_path):
        rng = np.random.default_rng(23)
        samples = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-300, 300, (5, 3))
        save_calibration_csv(CalibrationSet(samples=samples), tmp_path / "c.csv.gz")
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in samples)
        assert (tmp_path / "c.csv.gz").read_bytes() == want.encode()

    def test_csv_empty(self, tmp_path):
        (tmp_path / "c.csv").write_text("\n")
        with pytest.raises(FormatError, match="no samples"):
            load_calibration_csv(tmp_path / "c.csv")

    def test_auto_detect(self, tmp_path):
        rng = np.random.default_rng(22)
        calib = CalibrationSet(samples=rng.standard_normal((8, 3)))
        save_calibration(calib, tmp_path / "c.bin")
        save_calibration_csv(calib, tmp_path / "c.csv")
        np.testing.assert_array_equal(load_calibration_auto(tmp_path / "c.bin").samples,
                                      calib.samples)
        np.testing.assert_array_equal(load_calibration_auto(tmp_path / "c.csv").samples,
                                      calib.samples)


class TestPlanFile:
    def make_plan(self):
        table = (
            CandidateResult(k=2, layer_ratio=0.8, final_error=0.125),
            CandidateResult(k=3, layer_ratio=0.8 * 2 / 3, final_error=math.nan,
                            status="failed", reason="exploded"),
            CandidateResult(k=4, layer_ratio=0.4, final_error=0.0625),
        )
        return CompressionPlan(k=4, layer_ratio=0.4, candidate_table=table,
                               chosen_error=0.0625, n_layers=8, overall_ratio=0.2,
                               beta=0.05, seed=7)

    def test_round_trip(self, tmp_path):
        plan = self.make_plan()
        save_plan(plan, tmp_path / "p.json", tool={"name": "resvd", "version": "0.1.0"},
                  config={"calib_samples": 256})
        back = load_plan(tmp_path / "p.json")
        assert back.k == plan.k
        assert back.layer_ratio == plan.layer_ratio
        assert back.chosen_error == plan.chosen_error
        assert back.n_layers == plan.n_layers
        assert back.overall_ratio == plan.overall_ratio
        assert back.beta == plan.beta
        assert back.seed == plan.seed
        assert len(back.candidate_table) == 3
        ok_rows = [r for r in back.candidate_table if r.status == "ok"]
        assert [r.final_error for r in ok_rows] == [0.125, 0.0625]

    def test_nan_becomes_null_and_back(self, tmp_path):
        save_plan(self.make_plan(), tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        failed = [c for c in doc["candidates"] if c["status"] == "failed"]
        assert failed[0]["final_error"] is None
        back = load_plan(tmp_path / "p.json")
        assert math.isnan(back.candidate_table[1].final_error)
        assert back.candidate_table[1].reason == "exploded"

    def test_file_is_strict_json_and_deterministic(self, tmp_path):
        save_plan(self.make_plan(), tmp_path / "a.json")
        save_plan(self.make_plan(), tmp_path / "b.json")
        a = (tmp_path / "a.json").read_text()
        assert a == (tmp_path / "b.json").read_text()
        doc = json.loads(a)  # strict JSON: null, not NaN
        assert a == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_exact_budget_identity_survives_round_trip(self, tmp_path):
        plan = self.make_plan()
        save_plan(plan, tmp_path / "p.json")
        back = load_plan(tmp_path / "p.json")
        assert back.k * back.layer_ratio_exact == plan.k * plan.layer_ratio_exact

    def test_wrong_format_tag(self, tmp_path):
        (tmp_path / "p.json").write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(FormatError):
            load_plan(tmp_path / "p.json")

    @pytest.mark.parametrize("text", ["5", "[1]", "null"])
    def test_non_object_rejected(self, tmp_path, text):
        (tmp_path / "p.json").write_text(text)
        with pytest.raises(FormatError, match="must hold a JSON object"):
            load_plan(tmp_path / "p.json")

    def test_missing_key(self, tmp_path):
        save_plan(self.make_plan(), tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        del doc["k"]
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'k'"):
            load_plan(tmp_path / "p.json")

    @pytest.mark.parametrize("candidates", [5, ["x"], [None], {"k": 2}])
    def test_candidates_not_a_list_of_objects(self, tmp_path, candidates):
        save_plan(self.make_plan(), tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["candidates"] = candidates
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="candidates must be a list of objects"):
            load_plan(tmp_path / "p.json")

    @pytest.mark.parametrize("row, key, value", [
        (0, "final_error", "abc"),
        (0, "final_error", [1]),
        (0, "final_error", True),
        (0, "k", 2.5),
        (0, "layer_ratio", "0.8"),
        (0, "status", None),
        (1, "reason", 3),
        (None, "k", "x"),
        (None, "k", 2.5),
        (None, "k", True),
        (None, "chosen_error", "x"),
        (None, "n_layers", "x"),
        (None, "seed", 7.0),
        (None, "beta", False),
        (None, "overall_ratio", None),
        (None, "layer_ratio", [0.4]),
    ])
    def test_field_of_the_wrong_type(self, tmp_path, row, key, value):
        save_plan(self.make_plan(), tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        (doc if row is None else doc["candidates"][row])[key] = value
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"{key} must be "):
            load_plan(tmp_path / "p.json")


class TestErrorReportCsv:
    def test_round_trip_with_nan(self, tmp_path):
        vals = [0.5, float("nan"), 0.125]
        save_error_report(vals, tmp_path / "e.csv")
        back = load_error_report(tmp_path / "e.csv")
        assert back[0] == 0.5
        assert math.isnan(back[1])
        assert back[2] == 0.125

    def test_header_and_one_based_indices(self, tmp_path):
        save_error_report([0.1, 0.2], tmp_path / "e.csv")
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0] == ERROR_CSV_HEADER
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")

    def test_full_precision_round_trip(self, tmp_path):
        vals = [0.1, 1 / 3, 2.0 ** -40]
        save_error_report(vals, tmp_path / "e.csv")
        assert load_error_report(tmp_path / "e.csv") == vals

    def test_missing_header(self, tmp_path):
        (tmp_path / "e.csv").write_text("1,0.5\n")
        with pytest.raises(FormatError, match="header"):
            load_error_report(tmp_path / "e.csv")

    def test_out_of_order_index(self, tmp_path):
        (tmp_path / "e.csv").write_text(ERROR_CSV_HEADER + "\n1,0.5\n3,0.25\n")
        with pytest.raises(FormatError, match="out of order"):
            load_error_report(tmp_path / "e.csv")

    def test_no_rows(self, tmp_path):
        (tmp_path / "e.csv").write_text(ERROR_CSV_HEADER + "\n")
        with pytest.raises(FormatError, match="no data"):
            load_error_report(tmp_path / "e.csv")
