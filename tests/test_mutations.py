"""Seeded mutations through ``main()``: byte flips and truncations of a demo's manifest, tensor
files and ERCC calibration, and of the parsed-CSV, calibrated-state and plan entries a run leaves
in the cache. Every case exits 0, 2, 3 or 4 with at most one stderr line and no traceback, and
one that fails leaves no ``--out``; a damaged cache entry changes no output byte."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

from resvd.cli import main
from resvd.containers import load_calibration, save_calibration_csv

CASES = 200
CSV_CASES = 30
SEED = 19
EXITS = {0, 2, 3, 4}


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def mutated(data: bytes, rng: np.random.Generator) -> tuple[bytes, str]:
    """``data`` with one bit flipped or its tail cut off, chosen by ``rng``, and what was done."""
    if rng.random() < 0.5:
        at, bit = int(rng.integers(len(data))), int(rng.integers(8))
        return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:], f"bit {bit} of {at}"
    size = int(rng.integers(len(data)))
    return data[:size], f"cut to {size}"


def test_mutated_inputs_and_cache_entries(tmp_path, capsys, monkeypatch):
    demo = tmp_path / "demo"
    assert main(["gen-demo", "--out", str(demo), "--layers", "4", "--width", "16",
                 "--samples", "64", "--seed", "7"]) == 0
    rows = ["--calib", str(demo / "calib.bin")]
    planned = ["--model", str(demo), *rows, "--ratio", "0.2"]
    outs = {"compress": tmp_path / "out", "plan": tmp_path / "plan.csv",
            "analyze": tmp_path / "a.csv"}
    argv = {
        "compress": ["compress", *planned, "--out", str(outs["compress"])],
        "plan": ["plan", *planned, "--out", str(outs["plan"])],
        "analyze": ["analyze", "--original", str(demo), "--compressed", str(tmp_path / "ref"),
                    *rows, "--out", str(outs["analyze"])],
    }

    def output(command: str) -> dict[str, bytes]:
        out = outs[command]
        return dir_bytes(out) if out.is_dir() else {out.name: out.read_bytes()}

    def remove(out: Path) -> None:
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()

    pristine = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(pristine))
    assert main(argv["compress"]) == 0
    shutil.copytree(outs["compress"], tmp_path / "ref")
    want = {}
    remove(outs["compress"])
    for command in argv:
        assert main(argv[command]) == 0
        want[command] = output(command)
        remove(outs[command])
    entries = sorted((pristine / "resvd").iterdir())
    assert [p.suffix for p in entries] == [".ercp", ".ercs"]
    inputs = [demo / "manifest.json", demo / "calib.bin", *sorted(demo.glob("layer*.bin"))]

    rng = np.random.default_rng(SEED)
    codes = []
    for case in range(CASES):
        cache = tmp_path / f"cache{case}"
        shutil.copytree(pristine, cache)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        if case % 4 == 3:  # a cache entry; a damaged state is read only when no plan hits
            kind = ("plan", "state")[case // 4 % 2]
            target = cache / "resvd" / next(p.name for p in entries
                                            if p.suffix == {"plan": ".ercp",
                                                            "state": ".ercs"}[kind])
            if kind == "state":
                for plan in (cache / "resvd").glob("*.ercp"):
                    plan.unlink()
            command = ("compress", "plan")[case // 8 % 2]
        else:
            target = inputs[int(rng.integers(len(inputs)))]
            command = ("compress", "plan", "analyze")[case % 3]
        original = target.read_bytes()
        data, how = mutated(original, rng)
        target.write_bytes(data)
        what = f"case {case}: {command} with {target.name} {how}"
        try:
            capsys.readouterr()
            rc = main(argv[command])
            err = capsys.readouterr().err
        finally:
            target.write_bytes(original)
        codes.append(rc)
        assert rc in EXITS and "Traceback" not in err, (what, rc, err)
        if rc:
            assert err.startswith("resvd: ") and err.count("\n") == 1, (what, err)
            assert not outs[command].exists(), what
        else:
            assert err == "", (what, err)
        if target.parent.parent == cache:
            assert rc == 0 and output(command) == want[command], what
        remove(outs[command])
        shutil.rmtree(cache)
    assert {0, 2} <= set(codes), codes  # some mutations load, some are refused


def test_a_damaged_csv_entry_changes_no_output_byte(tmp_path, capsys, monkeypatch):
    # The entry a CSV's parse leaves, flipped or cut: every command parses the CSV again and
    # writes the bytes of an undamaged run.
    demo = tmp_path / "demo"
    assert main(["gen-demo", "--out", str(demo), "--layers", "4", "--width", "16",
                 "--samples", "64", "--seed", "7"]) == 0
    save_calibration_csv(load_calibration(demo / "calib.bin"), tmp_path / "c.csv")
    rows = ["--calib", str(tmp_path / "c.csv")]
    planned = ["--model", str(demo), *rows, "--ratio", "0.2"]
    out = tmp_path / "out"
    argv = {
        "compress": ["compress", *planned, "--out", str(out)],
        "plan": ["plan", *planned, "--out", str(out)],
        "analyze": ["analyze", "--original", str(demo), "--compressed", str(tmp_path / "ref"),
                    *rows, "--out", str(out)],
    }

    def output() -> dict[str, bytes]:
        found = dir_bytes(out) if out.is_dir() else {out.name: out.read_bytes()}
        shutil.rmtree(out) if out.is_dir() else out.unlink()
        return found

    pristine = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(pristine))
    assert main(argv["compress"]) == 0
    os.rename(out, tmp_path / "ref")
    want = {}
    for command in argv:
        assert main(argv[command]) == 0
        want[command] = output()
    [entry] = (pristine / "resvd").glob("*.ercc")
    good = entry.read_bytes()

    rng = np.random.default_rng(SEED)
    for case in range(CSV_CASES):
        cache = tmp_path / f"cache{case}"
        shutil.copytree(pristine, cache)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        damaged = cache / "resvd" / entry.name
        data, how = mutated(good, rng)
        damaged.write_bytes(data)
        command = ("compress", "plan", "analyze")[case % 3]
        capsys.readouterr()
        assert main(argv[command]) == 0, (case, how)
        assert capsys.readouterr().err == "", (case, how)
        assert output() == want[command], (case, command, how)
        assert damaged.read_bytes() == good, (case, how)  # the miss wrote the entry again
        shutil.rmtree(cache)
