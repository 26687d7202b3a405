"""Container tests: byte-identical round trips, header validation, and
hand-built binary fixtures."""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resvd.containers
import resvd.csv_cache
from resvd.calibration import READ_CHUNK_BYTES, CalibrationSet, RowFile
from resvd.containers import (
    ERROR_CSV_HEADER,
    load_calibration,
    load_calibration_auto,
    load_calibration_csv,
    load_model,
    load_plan,
    save_calibration,
    save_calibration_csv,
    save_error_report,
    save_model,
    save_plan,
)
from resvd.csv_cache import FORMAT_TAG, MAX_ENTRIES, _parse_csv
from resvd.errors import FormatError
from resvd.demo import demo_model
from resvd.linalg import FactorPair
from resvd.model import Layer, MatrixEntry, SequentialModel, forward
from resvd.planner import CandidateResult, CompressionPlan
from test_state_cache import rehashed


def small_model(rng):
    w0 = rng.standard_normal((6, 4))
    u = rng.standard_normal((5, 2))
    v = rng.standard_normal((2, 6))
    layers = (
        Layer(
            name="front",
            entries=(MatrixEntry(name="w", dense=w0),),
            activation="relu",
        ),
        Layer(
            name="back",
            entries=(MatrixEntry(name="w", factors=FactorPair(u_hat=u, v_hat=v)),),
            activation="identity",
        ),
    )
    return SequentialModel(layers=layers, meta={"origin": "test"})


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# CSV files: well-formed rows of numbers in the forms a writer might use,
# the three newline conventions (only "\n" ends a line), and in about half
# the files one flaw: a malformed token, a ragged row, a whitespace-only
# line, an ASCII whitespace or other character (UTF-8 encoded), or bytes
# that are not UTF-8 (a bad byte, or a character cut short) anywhere in the
# file.
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
        ["\x00", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\ufeff"])),
    st.tuples(st.just("bytes"), st.sampled_from([b"\xff", b"\xe2\x80", b"\xed\xa0\x80"])),
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
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + flaw + data[at:]
    return data


def _float_fault(tokens):
    """``float``'s message for the first of ``tokens`` it rejects; a token whose repr is
    over 40 characters is shown by its longest prefix whose repr is not, then "..."."""
    for tok in tokens:
        try:
            float(tok)
        except ValueError as exc:
            if len(repr(tok)) <= 40:
                return str(exc)
            keep = max(n for n in range(41) if len(repr(tok[:n])) <= 40)
            return f"could not convert string to float: {tok[:keep]!r}..."


def _parse_whole(path):
    """The reference parse: the whole file split at each b"\\n", then line by line.

    The rows before the first line that is not numeric or ragged are
    checked finite together, so a non-finite row before that line wins.
    """
    rows: list[list[float]] = []
    line_numbers: list[int] = []
    fault = None
    for ln, line in enumerate(path.read_bytes().split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.strip().split(b",")]
        except ValueError:
            fault = f"{path}:{ln}: not numeric ({_float_fault(line.strip().split(b','))})"
            break
        if rows and len(row) != len(rows[0]):
            fault = f"{path}:{ln}: expected {len(rows[0])} columns, got {len(row)}"
            break
        rows.append(row)
        line_numbers.append(ln)
    samples = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1)) if rows else []
    if len(bad):
        raise FormatError(f"{path}:{line_numbers[bad[0]]}: non-finite value")
    if fault or not rows:
        raise FormatError(fault or f"{path}: no samples")
    return samples


# An ASCII locale, with neither its coercion to C.UTF-8 nor UTF-8 mode, and a UTF-8 one.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
_UTF8_LOCALE = {"LC_ALL": "C.UTF-8"}


def _in_locale(env: dict, code: str, *args: str) -> tuple[str, str]:
    """The locale encoding of a child running ``code`` with ``env``, and its last stdout line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import codecs, locale; "
             "print(codecs.lookup(locale.getpreferredencoding(False)).name)\n" + code)
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env})
    assert proc.returncode == 0, proc.stderr
    encoding, *_, last = proc.stdout.splitlines()
    return encoding, last


def _parse_in_blocks(path, block):
    """:func:`_parse_csv`'s rows of the file at ``path``, read ``block`` bytes at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resvd.csv_cache, "READ_CHUNK_BYTES", block)
        rows = RowFile.spill("the parsed rows")
        digest = _parse_csv(path, rows)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    return rows.read(0, np.empty(rows.shape))


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

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_f32_round_trip_is_byte_identical(self, tmp_path, dtype):
        rng = np.random.default_rng(2)
        save_model(small_model(rng), tmp_path / "a", dtype=dtype)
        back = load_model(tmp_path / "a")
        assert back.layers[0].entries[0].dense.dtype == np.float64
        save_model(back, tmp_path / "b", dtype=dtype)
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_unknown_dtype_rejected_before_writing(self, tmp_path):
        rng = np.random.default_rng(12)
        save_model(small_model(rng), tmp_path / "m")
        before = dir_bytes(tmp_path / "m")
        with pytest.raises(ValueError, match=r"dtype must be one of \('f64', 'f32'\), got 'f16'"):
            save_model(small_model(rng), tmp_path / "m", dtype="f16")
        assert dir_bytes(tmp_path / "m") == before
        with pytest.raises(ValueError):
            save_model(small_model(rng), tmp_path / "new", dtype="f16")
        assert not (tmp_path / "new").exists()

    def test_mixed_precision_manifest_loads(self, tmp_path):
        # save_model writes one dtype per directory, but the reader takes a
        # manifest that mixes them and reads each tensor in its own dtype.
        rng = np.random.default_rng(13)
        model = small_model(rng)
        save_model(model, tmp_path / "m", dtype="f32")
        save_model(model, tmp_path / "d")
        (tmp_path / "m" / "back__w.bin").write_bytes((tmp_path / "d" / "back__w.bin").read_bytes())
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        doc["layers"][1]["matrices"][0]["dtype"] = "f64"
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(doc))
        back = load_model(tmp_path / "m")
        np.testing.assert_array_equal(back.layers[1].entries[0].factors.u_hat,
                                      model.layers[1].entries[0].factors.u_hat)
        np.testing.assert_array_equal(back.layers[0].entries[0].dense,
                                      model.layers[0].entries[0].dense.astype(np.float32))

    def test_input_dim_must_match_first_layer_width(self, tmp_path):
        save_model(demo_model(n_layers=2, width=16), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["input_dim"] = 8
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as info:
            load_model(tmp_path / "m")
        assert str(info.value) == (f"{manifest}: inconsistent model "
                                   f"(model input_dim 8 != first layer width 16)")

    def test_f32_files_are_half_size(self, tmp_path):
        rng = np.random.default_rng(3)
        save_model(small_model(rng), tmp_path / "a")
        save_model(small_model(rng), tmp_path / "b", dtype="f32")
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

    def test_manifest_is_read_as_utf8_under_any_locale(self, tmp_path):
        save_model(small_model(np.random.default_rng(7)), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.json"
        doc = {**json.loads(manifest.read_text()), "meta": {"note": "caf\u00e9"}}
        manifest.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        encoding, meta = _in_locale(
            _ASCII_LOCALE, "import json, sys; from resvd.containers import load_model; "
                           "print(json.dumps(load_model(sys.argv[1]).meta))", str(tmp_path / "m"))
        assert encoding == "ascii"
        assert json.loads(meta) == {"note": "caf\u00e9"}

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
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("fname", ["front__w.bin", "back__w.bin"])  # dense, factored
    def test_non_finite_tensor_rejected(self, tmp_path, bad, dtype, fname):
        rng = np.random.default_rng(11)
        save_model(small_model(rng), tmp_path / "m", dtype=dtype)
        path = tmp_path / "m" / fname
        values = np.frombuffer(path.read_bytes(), dtype={"f64": "<f8", "f32": "<f4"}[dtype]).copy()
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
        with pytest.raises(FormatError, match=r"c\.bin:1: not numeric"):
            load_calibration_auto(tmp_path / "c.bin")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_csv_non_finite_rejected(self, tmp_path, token):
        # the blank line makes the file line (3) differ from the row index (2)
        (tmp_path / "c.csv").write_text(f"1,2\n\n3,{token}\n")
        with pytest.raises(FormatError, match=r"c\.csv:3: non-finite value"):
            load_calibration_csv(tmp_path / "c.csv")

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=csv_files(), block=st.integers(2, 7))
    def test_any_read_block_parses_as_one_block(self, data, block):
        # The parse reads a block at a time. Whatever the block, every file
        # loads to the bits of a parse of its whole bytes, or fails with its
        # one-line message: the same fault and line, and the same sha256 of
        # the bytes parsed.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            path.write_bytes(data)
            want = _csv_outcome(_parse_whole, path)
            for size in (len(data) + 2, block, READ_CHUNK_BYTES):
                assert _csv_outcome(lambda p: _parse_in_blocks(p, size), path) == want
            assert _csv_outcome(lambda p: load_calibration_csv(p).samples, path) == want

    @pytest.mark.parametrize("text, message", [
        (b"1,2\n3,oops\n4,5,6\n", r"c\.csv:2: not numeric"),
        (b"1,2\n\n3\n4,oops\n", r"c\.csv:3: expected 2 columns, got 1"),
        (b"1,2\n3,-inf\n4,oops\n", r"c\.csv:2: non-finite value"),
        (b"1,nan\n2,3,4\n", r"c\.csv:1: non-finite value"),
        (b"1,oops\n2,\xff\n", r"c\.csv:1: not numeric \(.*b'oops'\)$"),
        (b"1,2\n3,\xc2\xa04\n", r"c\.csv:2: not numeric \(.*b'\\xc2\\xa04'\)$"),
        # a token whose repr is over 40 characters is shown by its longest
        # prefix whose repr is not, then "...", so any line gives a short message
        (b"1,2\n3," + b"x" * 37 + b"\n", r"c\.csv:2: not numeric \(.*: b'x{37}'\)$"),
        (b"1,2\n3," + b"x" * 38 + b"\n", r"c\.csv:2: not numeric \(.*: b'x{37}'\.\.\.\)$"),
        (b"1,2\n3," + b"\x00" * 10 + b"\n",
         r"c\.csv:2: not numeric \(could not convert string to float: b'(\\x00){9}'\.\.\.\)$"),
    ])
    @pytest.mark.parametrize("block", [2, 3, READ_CHUNK_BYTES])
    def test_the_fault_a_whole_parse_names_wins(self, tmp_path, text, message, block):
        # the first faulty line wins, whatever follows it; a byte that is
        # not ASCII is a token that is not numeric, never a decode error
        (tmp_path / "c.csv").write_bytes(text)
        with pytest.raises(FormatError, match=message) as whole:
            _parse_whole(tmp_path / "c.csv")
        with pytest.raises(FormatError) as parsed:
            _parse_in_blocks(tmp_path / "c.csv", block)
        assert str(parsed.value) == str(whole.value)

    def test_a_faulty_line_costs_less_than_twice_its_length(self, tmp_path):
        # 3 MB of zero bytes is one line of one token. The line is read into
        # one object, and the token is too long to hand to float, whose
        # message would hold its repr at 4 bytes a byte.
        path = tmp_path / "zeros.bin"
        path.write_bytes(b"\0" * (3 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"zeros\.bin:1: not numeric \(could not "
                               r"convert string to float: b'(\\x00){9}'\.\.\.\)$"):
                _parse_csv(path, RowFile.spill("the parsed rows"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size, peak

    @pytest.mark.parametrize("ln, line, message", [
        (2, b"," * (1 << 20), r"not numeric \(could not convert string to float: b''\)"),
        (2, b"x," * (1 << 19), r"not numeric \(could not convert string to float: b'x'\)"),
        (2, b"1," * (1 << 19), r"not numeric \(could not convert string to float: b''\)"),
        (2, b"10," * ((1 << 20) // 3) + b"x",
         r"not numeric \(could not convert string to float: b'x'\)"),
        (2, b"1," * (1 << 19) + b"1", rf"expected 2 columns, got {(1 << 19) + 1}"),
        (1, b"," * (1 << 20), r"not numeric \(could not convert string to float: b''\)"),
        (1, b"x," * (1 << 19), r"not numeric \(could not convert string to float: b'x'\)"),
        (1, b"10," * ((1 << 20) // 3) + b"x",
         r"not numeric \(could not convert string to float: b'x'\)"),
    ], ids=["commas", "x", "ones then nothing", "tens then x", "ones",
            "first commas", "first x", "first tens then x"])
    def test_a_line_of_another_width_costs_about_its_length(self, tmp_path, ln, line, message):
        # The first line, whose comma count gives the width, and a later line
        # whose comma count gives another width are not split: their tokens
        # reach float one at a time, so a 1 MB line of tokens costs about the
        # line, not an object per token.
        path = tmp_path / "c.csv"
        path.write_bytes(b"1,2\n" * (ln - 1) + line + b"\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=rf"c\.csv:{ln}: {message}$"):
                _parse_csv(path, RowFile.spill("the parsed rows"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(line), (peak, len(line))

    def test_a_token_longer_than_the_bound_is_not_numeric(self, tmp_path):
        # ASCII whitespace around a token counts toward its length
        bound = resvd.csv_cache.MAX_TOKEN_BYTES
        path = tmp_path / "c.csv"
        path.write_bytes(b"1,2\n3," + b" " * (bound - 1) + b"4\n")
        np.testing.assert_array_equal(load_calibration_csv(path).samples, [[1, 2], [3, 4]])
        path.write_bytes(b"1,2\n3," + b" " * bound + b"4\n")
        with pytest.raises(FormatError, match=r"c\.csv:2: not numeric \(could not convert "
                           r"string to float: b' {37}'\.\.\.\)$"):
            load_calibration_csv(path)

    @pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"])
    def test_only_a_newline_ends_a_csv_line(self, tmp_path, sep):
        # "1,2<sep>3,4" is one line whose second token "2<sep>3" is not a number
        (tmp_path / "c.csv").write_text(f"1,2{sep}3,4\n", newline="")
        with pytest.raises(FormatError, match=r"c\.csv:1: not numeric"):
            load_calibration_csv(tmp_path / "c.csv")

    def test_ascii_whitespace_around_a_token_is_ignored(self, tmp_path):
        (tmp_path / "c.csv").write_bytes(b" 1\x0b,\t2 \r\n\x0c\r\n3,4\r\n")
        np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                      [[1.0, 2.0], [3.0, 4.0]])

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

    def test_load_holds_no_payload(self, tmp_path):
        # a load checks the rows a chunk at a time and keeps none of them:
        # its peak is one chunk however many rows the file holds
        peaks = {}
        for rows in (4096, 8 * 4096):
            calib = CalibrationSet(samples=np.random.default_rng(24).standard_normal((rows, 64)))
            save_calibration(calib, tmp_path / "c.bin")
            tracemalloc.start()
            try:
                back = load_calibration(tmp_path / "c.bin")
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(back.samples, calib.samples)
            del back
        assert max(peaks.values()) < 1.5 * READ_CHUNK_BYTES < 4096 * 64 * 8, peaks

    @pytest.mark.parametrize("route", ["binary", "lines"])
    def test_loaded_rows_are_read_only(self, tmp_path, route):
        path = tmp_path / "c"
        if route == "binary":
            save_calibration(CalibrationSet(samples=np.ones((3, 2))), path)
            load = load_calibration
        else:  # float() strips the vertical tab and the carriage return
            path.write_bytes(b"1\x0b,2\r\n3,4\n")
            load = load_calibration_csv
        first = load(path).samples
        for samples in (first, load(path).samples):  # a CSV's second load is a cache hit
            assert not samples.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                samples[0, 0] = 0.0
            assert samples.tobytes() == first.tobytes()


def _cache_files() -> list[Path]:
    root = Path(os.environ["XDG_CACHE_HOME"], "resvd")
    return sorted(root.iterdir()) if root.is_dir() else []


def _no_parse(monkeypatch) -> None:
    """Make every CSV parse fail, so only a cache hit can load."""
    def parse(*args):
        raise AssertionError("a CSV was parsed")
    monkeypatch.setattr(resvd.csv_cache, "_parse_csv", parse)


class TestCalibrationCache:
    def write_csv(self, path: Path, rows=7, cols=3, seed=25) -> CalibrationSet:
        calib = CalibrationSet(samples=np.random.default_rng(seed).standard_normal((rows, cols)))
        save_calibration_csv(calib, path)
        return calib

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=csv_files())
    def test_cold_and_warm_loads_are_bit_identical(self, data):
        # the second load of each accepted file is a hit and returns the
        # parse's bits; a rejected file caches nothing and fails the same twice
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("XDG_CACHE_HOME", str(Path(tmp, "cache")))
            path = Path(tmp) / "c.csv"
            path.write_bytes(data)
            want = _csv_outcome(_parse_whole, path)
            load = lambda p: load_calibration_csv(p).samples  # noqa: E731
            assert _csv_outcome(load, path) == want
            assert len(_cache_files()) == (want[0] != "error")
            if want[0] != "error":
                _no_parse(mp)
            assert _csv_outcome(load, path) == want

    @pytest.mark.parametrize("cache", ["usable", "unusable"])
    def test_a_cold_load_is_file_backed_and_holds_no_copy_of_the_file(
            self, tmp_path, monkeypatch, cache):
        # A miss parses the CSV a block at a time into the file its rows are
        # then read from: a cache entry, or an unlinked spill when the cache
        # cannot be used. A file of eight blocks costs less than two.
        calib = self.write_csv(tmp_path / "c.csv", rows=4000, cols=32)
        assert (tmp_path / "c.csv").stat().st_size > 8 * READ_CHUNK_BYTES
        if cache == "unusable":
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        tracemalloc.start()
        try:
            loaded = load_calibration_csv(tmp_path / "c.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * READ_CHUNK_BYTES, peak
        assert isinstance(loaded._file, RowFile) and loaded._array is None
        np.testing.assert_array_equal(loaded.samples, calib.samples)
        assert len(_cache_files()) == (cache == "usable")

    def test_an_entry_that_cannot_be_written_leaves_nothing_and_parses_into_a_spill(
            self, tmp_path, monkeypatch):
        # The cache only saves time: a write to the entry's temporary file
        # that fails (no space, here) leaves no file in the cache, and the
        # load parses the CSV into an unlinked spill instead.
        calib = self.write_csv(tmp_path / "c.csv")
        made = []

        def mkstemp(*args, **kwargs):
            fd, name = real_mkstemp(*args, **kwargs)
            made.append(fd)
            return fd, name

        def pwrite(fd, data, at):
            if fd in made:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_pwrite(fd, data, at)

        real_mkstemp, real_pwrite = tempfile.mkstemp, os.pwrite
        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        monkeypatch.setattr(os, "pwrite", pwrite)
        loaded = load_calibration_csv(tmp_path / "c.csv")
        assert made and _cache_files() == []
        assert loaded._file.path.startswith(f"the rows of {tmp_path / 'c.csv'} spilled under ")
        np.testing.assert_array_equal(loaded.samples, calib.samples)

    @pytest.mark.parametrize("damage", ["truncate", "magic", "a payload byte",
                                        "a descriptor past the end", "other shapes"])
    def test_damaged_entry_is_reparsed_and_rewritten(self, tmp_path, monkeypatch, damage):
        # Any cut or changed byte is a miss, and so is an entry hashed again
        # after its descriptor was made to overrun the file or to swap the
        # rows and columns: the CSV is parsed again and its entry rewritten.
        calib = self.write_csv(tmp_path / "c.csv")
        load_calibration_csv(tmp_path / "c.csv")
        [entry] = _cache_files()
        with monkeypatch.context() as mp:
            _no_parse(mp)
            np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                          calib.samples)
        good = entry.read_bytes()
        if damage == "truncate":
            data = good[:-5]
        elif damage == "magic":
            data = b"NOPE" + good[4:]
        elif damage == "a payload byte":  # the lowest bit of the last value: still finite
            data = bytearray(good)
            data[-8] ^= 1
        else:
            data = rehashed(good, damage)
        entry.write_bytes(data)
        back = load_calibration_csv(tmp_path / "c.csv")
        np.testing.assert_array_equal(back.samples, calib.samples)
        assert _cache_files() == [entry]
        assert entry.read_bytes() == good

    def test_a_file_rewritten_during_a_load_is_cached_under_the_bytes_parsed(
            self, tmp_path, monkeypatch):
        # The lookup hashes the file and a miss reads it again. When the file
        # changes in between, the miss parses the bytes it read and caches
        # them under their own sha256, so a later load of the first content
        # still gets that content's rows.
        first = self.write_csv(tmp_path / "c.csv", seed=26)
        first_bytes = (tmp_path / "c.csv").read_bytes()
        second = self.write_csv(tmp_path / "d.csv", seed=27)
        second_bytes = (tmp_path / "d.csv").read_bytes()
        looked_up = []

        def entry_for(digest):
            if not looked_up:  # the first call names the lookup, right after the digest
                (tmp_path / "c.csv").write_bytes(second_bytes)
            looked_up.append(digest)
            return real(digest)

        real = resvd.csv_cache.entry_for
        monkeypatch.setattr(resvd.csv_cache, "entry_for", entry_for)
        got = load_calibration_csv(tmp_path / "c.csv").samples
        assert looked_up[0] == hashlib.sha256(first_bytes).hexdigest()
        np.testing.assert_array_equal(got, second.samples)
        [entry] = _cache_files()
        assert entry.name == f"{FORMAT_TAG}-{hashlib.sha256(second_bytes).hexdigest()}.ercc"
        with monkeypatch.context() as mp:
            _no_parse(mp)
            np.testing.assert_array_equal(load_calibration_csv(tmp_path / "d.csv").samples,
                                          second.samples)

        (tmp_path / "c.csv").write_bytes(first_bytes)
        np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                      first.samples)
        assert len(_cache_files()) == 2

    def test_a_hit_reads_the_file_once_and_checks_no_byte_class(self, tmp_path, monkeypatch):
        # A hit costs the sha256 of the file alone: one read of the CSV, for
        # the hash, and no parse.
        calib = self.write_csv(tmp_path / "c.csv")
        load_calibration_csv(tmp_path / "c.csv")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        _no_parse(monkeypatch)
        monkeypatch.setattr(resvd.csv_cache, "open", counting_open, raising=False)
        np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                      calib.samples)
        assert opened == [tmp_path / "c.csv"]

    def test_one_byte_edit_misses(self, tmp_path):
        self.write_csv(tmp_path / "c.csv")
        before = load_calibration_csv(tmp_path / "c.csv").samples
        text = (tmp_path / "c.csv").read_bytes()
        at = text.rindex(b".") + 1  # the first decimal of the last value
        digit = b"1" if text[at : at + 1] == b"0" else b"0"
        (tmp_path / "c.csv").write_bytes(text[:at] + digit + text[at + 1 :])
        after = load_calibration_csv(tmp_path / "c.csv").samples
        np.testing.assert_array_equal(after, _parse_whole(tmp_path / "c.csv"))
        assert after.tobytes() != before.tobytes()
        assert len(_cache_files()) == 2

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3\n", r"c\.csv:2: expected 2 columns, got 1"),
        ("1,2\n3,oops\n", r"c\.csv:2: not numeric"),
        ("1,nan\n", r"c\.csv:1: non-finite value"),
        ("\n", r"c\.csv: no samples"),
    ])
    def test_rejected_csv_writes_no_entry(self, tmp_path, text, message):
        (tmp_path / "c.csv").write_text(text)
        for _ in range(2):
            with pytest.raises(FormatError, match=message):
                load_calibration_csv(tmp_path / "c.csv")
        assert _cache_files() == []

    def test_unusable_location_is_skipped(self, tmp_path, monkeypatch):
        # a regular file where the cache directory should be: as root, a
        # directory's permissions would not stop the write
        calib = self.write_csv(tmp_path / "c.csv")
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        for _ in range(2):
            np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                          calib.samples)
        assert (tmp_path / "file").read_text() == ""

    def test_no_home_means_no_cache(self, tmp_path, monkeypatch):
        calib = self.write_csv(tmp_path / "c.csv")
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)  # "~" stays "~"
        monkeypatch.chdir(tmp_path)
        np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                      calib.samples)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]

    def test_a_csv_loads_the_same_under_any_locale(self, tmp_path):
        # The parse reads bytes and no locale, so a no-break space in UTF-8
        # is the same fault under a UTF-8 and an ASCII locale, whichever of
        # them meets the file first with one cache.
        path = tmp_path / "c.csv"
        path.write_bytes(b"1.0,2.0\n3.0,\xc2\xa04.0\n")
        load = ("import json, sys; from resvd.containers import load_calibration_csv as load; "
                "from resvd.errors import FormatError\n"
                "try: print(json.dumps(load(sys.argv[1]).samples.tolist()))\n"
                "except FormatError as exc: print(json.dumps(str(exc)))")
        outcomes = set()
        for i, order in enumerate([(_UTF8_LOCALE, _ASCII_LOCALE), (_ASCII_LOCALE, _UTF8_LOCALE)]):
            cache = {"XDG_CACHE_HOME": str(tmp_path / f"cache{i}")}
            encodings = []
            for env in order:
                encoding, outcome = _in_locale({**env, **cache}, load, str(path))
                encodings.append(encoding)
                outcomes.add(outcome)
            assert sorted(encodings) == ["ascii", "utf-8"]
        assert len(outcomes) == 1, outcomes
        [outcome] = outcomes
        assert json.loads(outcome).startswith(f"{path}:2: not numeric (")

    def test_an_entry_of_an_older_format_tag_is_not_read(self, tmp_path):
        # entries parsed under other rules never serve a load, even for the same bytes
        calib = self.write_csv(tmp_path / "c.csv")
        digest = hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest()
        entry = resvd.csv_cache.entry_for(digest)
        old = entry.with_name(f"csv1-{digest}.ercc")
        old.parent.mkdir(parents=True)
        save_calibration(CalibrationSet(samples=calib.samples + 1.0), old)
        np.testing.assert_array_equal(load_calibration_csv(tmp_path / "c.csv").samples,
                                      calib.samples)
        assert FORMAT_TAG != "csv1" and _cache_files() == sorted([old, entry])

    def test_relative_xdg_cache_home_falls_back_to_home(self, tmp_path, monkeypatch):
        self.write_csv(tmp_path / "c.csv")
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        load_calibration_csv(tmp_path / "c.csv")
        assert len(list((tmp_path / "home" / ".cache" / "resvd").iterdir())) == 1
        assert not (tmp_path / "relative").exists()

    def test_oldest_entries_are_evicted_and_a_hit_counts_as_use(self, tmp_path):
        paths = [tmp_path / f"c{i}.csv" for i in range(MAX_ENTRIES + 2)]
        entries = []
        for i, path in enumerate(paths[:MAX_ENTRIES]):
            self.write_csv(path, seed=i)
            load_calibration_csv(path)
            [entry] = set(_cache_files()) - set(entries)
            os.utime(entry, ns=(i * 10**9, i * 10**9))  # distinct ages, oldest first
            entries.append(entry)
        load_calibration_csv(paths[0])  # a hit: entry 0 is now the newest
        for i, path in enumerate(paths[MAX_ENTRIES:]):
            self.write_csv(path, seed=MAX_ENTRIES + i)
            load_calibration_csv(path)
        kept = set(_cache_files())
        assert len(kept) == MAX_ENTRIES
        assert entries[0] in kept
        assert not kept & {entries[1], entries[2]}
        assert not list(tmp_path.glob("**/*.tmp"))


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
        assert (back.k, back.n_layers, back.seed) == (plan.k, plan.n_layers, plan.seed)
        # every float bit for bit, the failed row's nan included: the state cache keeps the
        # candidate table as this document
        for name in ("layer_ratio", "chosen_error", "overall_ratio", "beta"):
            assert getattr(back, name).hex() == getattr(plan, name).hex(), name

        def rows(p):
            return [(r.k, r.layer_ratio.hex(), r.final_error.hex(), r.status, r.reason)
                    for r in p.candidate_table]

        assert rows(back) == rows(plan)

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

    def test_bytes_that_are_not_text_are_a_format_error(self, tmp_path):
        (tmp_path / "p.json").write_bytes(b"\xff\xfe{")
        with pytest.raises(FormatError, match=r"p\.json: cannot be decoded as text"):
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


def read_error_values(path):
    """The relative errors of an error report, in layer order."""
    return [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]


class TestErrorReportCsv:
    def test_round_trip_with_nan(self, tmp_path):
        vals = [0.5, float("nan"), 0.125]
        save_error_report(vals, tmp_path / "e.csv")
        back = read_error_values(tmp_path / "e.csv")
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
        assert read_error_values(tmp_path / "e.csv") == vals
