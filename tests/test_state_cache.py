"""Calibrated-state cache tests: a hit gives the bytes a miss gives and skips the
calibration pass, every input the pass depends on is in the key, and no
damaged or unusable cache changes a result."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import resvd.compensation
import resvd.containers
import resvd.planner
import resvd.state_cache
from resvd.calibration import CalibrationSet
from resvd.cli import main
from resvd.containers import plan_document, save_calibration_csv
from resvd.demo import demo_calibration, demo_model
from resvd.model import Layer, MatrixEntry, SequentialModel
from resvd.planner import calibrate


def states() -> list[Path]:
    return sorted(Path(os.environ["XDG_CACHE_HOME"], "resvd").glob("*.ercs"))


def plans() -> list[Path]:
    return sorted(Path(os.environ["XDG_CACHE_HOME"], "resvd").glob("*.ercp"))


def drop_plans() -> None:
    """Remove every plan entry, so the next plan or compress runs its scan."""
    for entry in plans():
        entry.unlink()


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def passes(monkeypatch) -> dict[str, int]:
    """Counts of calibration passes and whitened SVDs, through wrappers of both."""
    counts = {"capture": 0, "whitened_svd": 0}
    capture, svd = resvd.planner.capture_activations, resvd.compensation.svd

    def capturing(*args, **kwargs):
        counts["capture"] += 1
        return capture(*args, **kwargs)

    def factoring(w, name="matrix"):
        counts["whitened_svd"] += name.endswith(" (whitened)")
        return svd(w, name=name)

    monkeypatch.setattr(resvd.planner, "capture_activations", capturing)
    monkeypatch.setattr(resvd.compensation, "svd", factoring)
    return counts


@pytest.fixture
def demo(tmp_path) -> Path:
    path = tmp_path / "demo"
    assert main(["gen-demo", "--out", str(path), "--layers", "6", "--width", "16",
                 "--samples", "64", "--seed", "3"]) == 0
    return path


def compress_argv(demo: Path, out: Path, *extra: str) -> list[str]:
    return ["compress", "--model", str(demo), "--calib", str(demo / "calib.bin"),
            "--ratio", "0.2", "--out", str(out), *extra]


def mlp(rng, n_layers=4, width=10) -> SequentialModel:
    return SequentialModel(layers=tuple(
        Layer(name=f"layer{i}", activation="relu" if i < n_layers - 1 else "identity",
              entries=(MatrixEntry(name="w", dense=rng.standard_normal((width, width))),))
        for i in range(n_layers)))


def rehashed(data: bytes, damage: str) -> bytearray:
    """The entry ``data`` with its descriptor's byte count past the end of the file, or with each
    shape its descriptor lists reversed, so the arrays take the same bytes; hashed again, so
    only the reader's own checks of the count and the shapes can refuse it."""
    header, fields = resvd.containers.ENTRY_HEADER, resvd.containers.ENTRY_FIELDS
    magic, version, size, _ = header.unpack_from(data)
    descriptor, payload = data[header.size : header.size + size], data[header.size + size :]
    if damage == "a descriptor past the end":
        size = 1 << 62
    else:
        doc = json.loads(descriptor)
        doc["shapes"] = [shape[::-1] for shape in doc["shapes"]]
        descriptor = json.dumps(doc).encode()
        size = len(descriptor)
    head = fields.pack(magic, version, size)
    return bytearray(head + hashlib.sha256(head + descriptor + payload).digest() + descriptor
                     + payload)


def flipped(a: np.ndarray, at: int) -> np.ndarray:
    """``a`` with the lowest bit of its ``at``-th value flipped."""
    out = a.copy()
    out.reshape(-1).view(np.uint64)[at] ^= 1
    return out


class TestHits:
    def test_warm_cold_and_unusable_runs_write_the_same_bytes(self, tmp_path, capsys,
                                                              monkeypatch, demo, passes):
        # One --out path, so the config echo matches; plan's table too.
        out = tmp_path / "out"
        plan_argv = ["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                     "--ratio", "0.2"]
        runs = {}
        (tmp_path / "file").write_text("")
        for run in ("cold", "warm", "unusable"):
            if run == "unusable":
                monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
            before = passes["capture"]
            assert main(compress_argv(demo, out)) == 0
            capsys.readouterr()
            assert main(plan_argv) == 0
            runs[run] = (dir_bytes(out), capsys.readouterr())
            assert passes["capture"] - before == {"cold": 1, "warm": 0, "unusable": 2}[run]
            if run == "cold":
                assert len(states()) == 1
            os.rename(out, tmp_path / run)
        assert runs["warm"] == runs["cold"] == runs["unusable"]
        assert (tmp_path / "file").read_text() == ""

    def test_a_hit_runs_no_pass_no_whitened_svd_and_no_spill(self, tmp_path, monkeypatch,
                                                             demo, passes):
        # A TMPDIR that does not exist ends any run that spills (exit 2); a
        # hit reads the model output from its entry, so it needs none.
        assert main(compress_argv(demo, tmp_path / "cold")) == 0
        assert passes["capture"] == 1 and passes["whitened_svd"] > 0
        passes.update(capture=0, whitened_svd=0)
        monkeypatch.setenv("TMPDIR", str(tmp_path / "missing"))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main(compress_argv(demo, tmp_path / "warm")) == 0
        assert passes == {"capture": 0, "whitened_svd": 0}
        # a ratio, beta, step or dtype the first run did not use is served too
        for i, extra in enumerate((["--ratio", "0.3"], ["--beta", "0.1"], ["--step", "2"],
                                   ["--baseline"], ["--dtype", "f32"])):
            assert main(compress_argv(demo, tmp_path / f"other{i}", *extra)) == 0
        assert passes == {"capture": 0, "whitened_svd": 0}

    def test_array_order_comes_from_the_iterator_not_from_names(self, tmp_path, passes):
        # Layer names sort against forward order, and each layer applies w1
        # before w0. Every matrix has one shape, so an entry whose writer
        # ordered its arrays by key would still be read, with its arrays
        # swapped: only writing in the reader's order gives the cold bytes.
        rng = np.random.default_rng(7)
        model = SequentialModel(layers=tuple(
            Layer(name=name, activation="relu", entries=tuple(
                MatrixEntry(name=w, dense=rng.standard_normal((8, 8)) / np.sqrt(8))
                for w in ("w1", "w0")))
            for name in ("c", "b", "a", "z")))
        assert [key for key, _ in model.tail_entries(3)] == [
            "b/w1", "b/w0", "a/w1", "a/w0", "z/w1", "z/w0"]
        resvd.containers.save_model(model, tmp_path / "model")
        resvd.containers.save_calibration(CalibrationSet(samples=rng.standard_normal((64, 8))),
                                          tmp_path / "calib.bin")
        argv = ["compress", "--model", str(tmp_path / "model"), "--calib",
                str(tmp_path / "calib.bin"), "--ratio", "0.2", "--out", str(tmp_path / "out")]
        runs = {}
        for run in ("cold", "plan hit", "state hit"):
            if run == "state hit":
                drop_plans()
            assert main(argv) == 0
            runs[run] = dir_bytes(tmp_path / "out")
            os.rename(tmp_path / "out", tmp_path / run.replace(" ", "-"))
        assert passes["capture"] == 1
        assert runs["plan hit"] == runs["cold"]
        assert runs["state hit"] == runs["cold"]

    def test_a_state_covering_more_layers_serves_fewer_as_a_miss_would(self, passes):
        rng = np.random.default_rng(1)
        model, calib = mlp(rng), CalibrationSet(samples=rng.standard_normal((30, 10)))
        wide = calibrate(model, calib, 3)
        narrow = calibrate(model, calib, 2)
        assert passes["capture"] == 1
        assert narrow.tail == 2 and list(narrow.matrices) == list(wide.matrices)[1:]
        for key in narrow.matrices:
            weight, want = narrow.weight(key), wide.weight(key)
            assert weight.u.tobytes() == want.u.tobytes()
            assert weight.sigma.tobytes() == want.sigma.tobytes()
            assert weight.u.flags.c_contiguous
        assert narrow.reference_norms == wide.reference_norms
        rows = np.empty(wide.output.shape)
        assert narrow.output.read(0, rows.copy()).tobytes() == wide.output.read(0, rows).tobytes()


class TestMisses:
    def test_each_input_of_the_pass_is_in_the_key(self, monkeypatch, passes):
        rng = np.random.default_rng(2)
        model, x = mlp(rng), rng.standard_normal((30, 10))
        calibrate(model, CalibrationSet(samples=x), 2)
        w = model.layers[0].entries[0].dense
        other = SequentialModel(layers=(
            Layer(name="layer0", activation="relu",
                  entries=(MatrixEntry(name="w", dense=flipped(w, 17)),)),
            *model.layers[1:]))
        real = resvd.state_cache._sources

        def edited():
            for i, (name, data) in enumerate(real()):
                yield name, data if i else bytes([data[0] ^ 1]) + data[1:]

        misses = {
            "one weight bit": lambda: calibrate(other, CalibrationSet(samples=x), 2),
            "one row bit": lambda: calibrate(model, CalibrationSet(samples=flipped(x, 95)), 2),
            "a subsample": lambda: calibrate(model, CalibrationSet(samples=x).subsample(29, 0), 2),
            "another subsample": lambda: calibrate(
                model, CalibrationSet(samples=x).subsample(29, 1), 2),
            "a larger k": lambda: calibrate(model, CalibrationSet(samples=x), 3),
        }
        for what, run in misses.items():
            before = passes["capture"]
            run()
            assert passes["capture"] == before + 1, what
        calibrate(model, CalibrationSet(samples=x), 2)  # the larger k's state covers 2
        assert passes["capture"] == len(misses) + 1
        with monkeypatch.context() as patch:
            patch.setenv("OPENBLAS_NUM_THREADS", "1" if os.environ.get(
                "OPENBLAS_NUM_THREADS") != "1" else "2")
            calibrate(model, CalibrationSet(samples=x), 2)
        with monkeypatch.context() as patch:
            patch.setenv("OPENBLAS_CORETYPE", "Haswell" if os.environ.get(
                "OPENBLAS_CORETYPE") != "Haswell" else "Zen")
            calibrate(model, CalibrationSet(samples=x), 2)
        with monkeypatch.context() as patch:
            patch.setattr(resvd.state_cache, "_sources", edited)
            calibrate(model, CalibrationSet(samples=x), 2)
        with monkeypatch.context() as patch:  # another kind of CPU sharing the cache
            cpu = resvd.state_cache._cpu()
            patch.setattr(resvd.state_cache, "_cpu", lambda: [*cpu[:-1], cpu[-1] + " avx9"])
            calibrate(model, CalibrationSet(samples=x), 2)
        assert passes["capture"] == len(misses) + 5

    @pytest.mark.parametrize("samples, seed", [("40", "2"), ("41", "1")])
    def test_another_samples_or_seed_misses(self, tmp_path, demo, passes, samples, seed):
        base = ["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2", "--out", str(tmp_path / "p.csv")]
        assert main(base + ["--samples", "40", "--seed", "1"]) == 0
        assert main(base + ["--samples", samples, "--seed", seed]) == 0
        assert main(base + ["--samples", "40", "--seed", "1"]) == 0
        assert passes["capture"] == 2
        assert len(states()) == 2


class TestDamage:
    @pytest.mark.parametrize("damage", ["truncated", "a payload byte", "a header byte",
                                        "zero-length", "a directory",
                                        "a descriptor past the end", "other shapes"])
    def test_a_damaged_entry_gives_the_same_bytes_again(self, tmp_path, capsys, demo, passes,
                                                        damage):
        out = tmp_path / "out"
        assert main(compress_argv(demo, out)) == 0
        want = dir_bytes(out)
        [entry] = states()
        data = bytearray(entry.read_bytes())
        if damage == "truncated":
            data = data[: len(data) // 2]
        elif damage == "a payload byte":
            data[len(data) // 3] ^= 0x40
        elif damage == "a header byte":
            data[9] ^= 1  # the descriptor's byte count
        elif damage == "zero-length":
            data = b""
        elif damage in ("a descriptor past the end", "other shapes"):
            data = rehashed(data, damage)
        if damage == "a directory":
            entry.unlink()
            entry.mkdir()
        else:
            entry.write_bytes(data)
        os.rename(out, tmp_path / "cold")
        capsys.readouterr()
        drop_plans()  # so the scan runs and reads the state
        assert main(compress_argv(demo, out)) == 0
        assert capsys.readouterr().err == ""
        assert dir_bytes(out) == want
        assert passes["capture"] == 2
        if damage != "a directory":  # the miss wrote the entry again, and it now hits
            os.rename(out, tmp_path / "again")
            drop_plans()
            assert main(compress_argv(demo, out)) == 0
            assert passes["capture"] == 2 and dir_bytes(out) == want

    def test_a_state_over_the_byte_bound_is_not_written(self, tmp_path, monkeypatch, demo,
                                                        passes):
        assert main(compress_argv(demo, tmp_path / "a")) == 0
        [entry] = states()
        size = entry.stat().st_size
        entry.unlink()
        drop_plans()
        monkeypatch.setattr(resvd.state_cache, "MAX_BYTES", size - 1)
        assert main(compress_argv(demo, tmp_path / "b")) == 0
        assert states() == []
        assert list(entry.parent.iterdir()) == []  # no temporary file left either
        monkeypatch.setattr(resvd.state_cache, "MAX_BYTES", size)
        drop_plans()
        assert main(compress_argv(demo, tmp_path / "c")) == 0
        assert [p.stat().st_size for p in states()] == [size]

    def test_a_state_over_the_byte_bound_or_an_unusable_cache_hashes_no_key(
            self, tmp_path, monkeypatch, demo):
        # No such state is ever read or written, so a key would only read the rows once more:
        # these runs read the blocks a run with no home at all reads, and hash nothing.
        reads, keys = [], []
        block, key = CalibrationSet.block, resvd.state_cache.key

        def reading(self, rows, ws):
            reads.append(rows)
            return block(self, rows, ws)

        def keying(*args):
            keys.append(args)
            return key(*args)

        monkeypatch.setattr(CalibrationSet, "block", reading)
        monkeypatch.setattr(resvd.state_cache, "key", keying)
        counts = {}
        (tmp_path / "file").write_text("")
        for run in ("no home", "oversized", "unusable", "cold"):
            with monkeypatch.context() as patch:
                if run == "no home":
                    patch.setattr(resvd.state_cache, "cache_dir", lambda: None)
                elif run == "oversized":
                    patch.setattr(resvd.state_cache, "MAX_BYTES",
                                  resvd.containers.ENTRY_HEADER.size)
                elif run == "unusable":
                    patch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
                reads.clear(), keys.clear()
                assert main(compress_argv(demo, tmp_path / run.replace(" ", "-"))) == 0
                counts[run] = (len(reads), len(keys))
        assert counts["oversized"] == counts["unusable"] == counts["no home"]
        assert counts["no home"][1] == 0 and states() != []
        assert counts["cold"] == (counts["no home"][0] + 1, 1)  # demo's 64 rows are one block

    def test_an_entry_cut_short_after_its_check_ends_the_read_of_an_array(self, tmp_path):
        # read_entry checked the entry whole; a file cut short after that is
        # not a miss but a fault of the run, an EIO naming the file.
        entry = tmp_path / "e.ercs"
        resvd.containers.publish_entry(entry, {"shapes": [[4, 3]]}, [np.ones((4, 3))], 1, None)
        rows, doc, [at] = resvd.containers.read_entry(entry, None)
        os.truncate(entry, at + 8)
        with pytest.raises(OSError) as exc:
            rows.array(at, doc["shapes"][0])
        assert (exc.value.errno, exc.value.filename) == (errno.EIO, entry)

    def test_state_writes_never_evict_a_csv_entry(self, tmp_path, demo):
        csvs = []
        for seed in range(3):
            path = tmp_path / f"c{seed}.csv"
            save_calibration_csv(demo_calibration(24, 16, seed), path)
            assert main(["plan", "--model", str(demo), "--calib", str(path),
                         "--ratio", "0.2", "--out", str(tmp_path / "p.csv")]) == 0
            csvs.append(path)
        cache = Path(os.environ["XDG_CACHE_HOME"], "resvd")
        kept = sorted(cache.glob("*.ercc"))
        assert len(kept) == 3
        model = demo_model(6, 16, 0)
        for seed in range(3 * resvd.state_cache.MAX_ENTRIES):
            calibrate(model, demo_calibration(24, 16, 100 + seed), 2)
        assert sorted(cache.glob("*.ercc")) == kept
        assert len(states()) == resvd.state_cache.MAX_ENTRIES
        assert not list(cache.glob("*.ercs-tmp"))


@pytest.fixture
def factorings(monkeypatch) -> list[str]:
    """The matrices the planner passes to ``compress_matrix``, one item per call."""
    names, real = [], resvd.planner.compress_matrix

    def factoring(weight, ratio, beta, name="matrix"):
        names.append(name)
        return real(weight, ratio, beta, name=name)

    monkeypatch.setattr(resvd.planner, "compress_matrix", factoring)
    return names


def last_error_is_chosen(out: Path) -> bool:
    """Whether ``errors.csv``'s last value is ``plan.json``'s ``chosen_error``, bit for bit."""
    last = float((out / "errors.csv").read_text().split()[-1].split(",")[1])
    return last.hex() == float(json.loads((out / "plan.json").read_text())["chosen_error"]).hex()


class TestPlanEntries:
    def plan_argv(self, demo: Path, *extra: str) -> list[str]:
        return ["plan", "--model", str(demo), "--calib", str(demo / "calib.bin"),
                "--ratio", "0.2", *extra]

    def test_a_hit_factors_nothing_and_writes_the_bytes_of_a_miss(
            self, tmp_path, capsys, monkeypatch, demo, passes, factorings):
        # compress misses and keeps its scan; plan and compress then hit. A
        # plan from an empty cache prints what the hit printed.
        out = tmp_path / "out"
        assert main(compress_argv(demo, out)) == 0
        assert factorings and passes["capture"] == 1 and len(plans()) == 1
        miss = dir_bytes(out)
        assert last_error_is_chosen(out)
        os.rename(out, tmp_path / "miss")
        factorings.clear()
        capsys.readouterr()
        assert main(self.plan_argv(demo)) == 0
        table = capsys.readouterr().out
        assert main(compress_argv(demo, out)) == 0
        assert factorings == [] and passes["capture"] == 1
        assert dir_bytes(out) == miss and last_error_is_chosen(out)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        capsys.readouterr()
        assert main(self.plan_argv(demo)) == 0
        assert capsys.readouterr().out == table and factorings

    @pytest.mark.parametrize("extra", [["--ratio", "0.3"], ["--beta", "0.1"], ["--baseline"],
                                       ["--step", "2"]])
    def test_another_ratio_beta_or_step_misses(self, tmp_path, demo, passes, factorings,
                                               extra):
        assert main(compress_argv(demo, tmp_path / "a")) == 0
        factorings.clear()
        assert main(compress_argv(demo, tmp_path / "b", *extra)) == 0
        assert factorings and passes["capture"] == 1  # the state hits, the plan does not
        assert len(plans()) == 2
        factorings.clear()
        assert main(compress_argv(demo, tmp_path / "c", *extra)) == 0
        assert factorings == []
        assert dir_bytes(tmp_path / "c")["plan.json"] != dir_bytes(tmp_path / "a")["plan.json"]

    def test_another_seed_on_the_same_rows_hits_and_echoes_its_own_seed(
            self, tmp_path, monkeypatch, demo, factorings):
        # The demo's 64 rows are under the default --samples 256, so the seed
        # draws none of them; the state and the plan are those of seed 0.
        out = tmp_path / "out"
        assert main(compress_argv(demo, out)) == 0
        os.rename(out, tmp_path / "seed0")
        factorings.clear()
        assert main(compress_argv(demo, out, "--seed", "5")) == 0
        assert factorings == []
        assert json.loads((out / "plan.json").read_text())["seed"] == 5
        hit = dir_bytes(out)
        assert hit != dir_bytes(tmp_path / "seed0")
        os.rename(out, tmp_path / "hit")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        assert main(compress_argv(demo, out, "--seed", "5")) == 0
        assert dir_bytes(out) == hit and factorings

    @pytest.mark.parametrize("damage", ["truncated", "a payload byte", "a header byte",
                                        "zero-length", "a directory", "another version",
                                        "a descriptor past the end", "other shapes"])
    def test_a_damaged_entry_is_a_miss_with_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                                           demo, factorings, damage):
        out = tmp_path / "out"
        assert main(compress_argv(demo, out)) == 0
        want = dir_bytes(out)
        [entry] = plans()
        data = bytearray(entry.read_bytes())
        header = resvd.containers.ENTRY_HEADER
        if damage == "truncated":
            data = data[: len(data) - 8]
        elif damage == "a payload byte":
            data[len(data) // 2] ^= 0x40
        elif damage == "a header byte":
            data[8] ^= 1  # the table's byte count
        elif damage == "zero-length":
            data = b""
        elif damage == "another version":  # a well-formed entry, hashed, of the next version
            magic, version, size, _ = header.unpack_from(data)
            fields = resvd.containers.ENTRY_FIELDS.pack(magic, version + 1, size)
            digest = hashlib.sha256(fields + data[header.size:]).digest()
            data[: header.size] = fields + digest
        elif damage in ("a descriptor past the end", "other shapes"):
            data = rehashed(data, damage)
        if damage == "a directory":
            entry.unlink()
            entry.mkdir()
        else:
            entry.write_bytes(data)
        os.rename(out, tmp_path / "cold")
        factorings.clear()
        capsys.readouterr()
        parsed, loads = [], json.loads  # every string parsed as JSON
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
        assert main(compress_argv(demo, out)) == 0
        assert capsys.readouterr().err == ""
        assert factorings and dir_bytes(out) == want
        if damage != "other shapes":  # no descriptor is parsed before its sha256 matches
            assert not [s for s in parsed if "resvd-plan" in str(s)]
        if damage != "a directory":  # the miss wrote the entry again, and it now hits
            os.rename(out, tmp_path / "again")
            factorings.clear()
            assert main(compress_argv(demo, out)) == 0
            assert factorings == [] and dir_bytes(out) == want

    def test_an_entry_over_the_byte_bound_is_not_written(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        model, calib = mlp(rng), CalibrationSet(samples=rng.standard_normal((30, 10)))
        chosen = resvd.planner.plan(model, calib, resvd.planner.PlannerConfig(0.2))
        entry = tmp_path / "plan-x.ercp"
        resvd.state_cache.save_plan(entry, chosen)
        size = entry.stat().st_size
        entry.unlink()
        monkeypatch.setattr(resvd.state_cache, "MAX_BYTES", size - 1)
        resvd.state_cache.save_plan(entry, chosen)
        assert list(tmp_path.iterdir()) == []  # no temporary file left either
        monkeypatch.setattr(resvd.state_cache, "MAX_BYTES", size)
        resvd.state_cache.save_plan(entry, chosen)
        assert entry.stat().st_size == size
        k, table, pairs = resvd.state_cache.load_plan(entry, model)
        assert (k, table) == (chosen.k, chosen.candidate_table)
        for layer in chosen.compressed.layers[-k:]:
            for e in layer.entries:
                pair = pairs[f"{layer.name}/{e.name}"]
                assert pair.u_hat.tobytes() == e.factors.u_hat.tobytes()
                assert pair.v_hat.tobytes() == e.factors.v_hat.tobytes()

    def test_an_int_beta_plans_and_names_its_entry_as_the_float_does(self, tmp_path):
        rng = np.random.default_rng(6)
        model, calib = mlp(rng), CalibrationSet(samples=rng.standard_normal((30, 10)))
        configs = [resvd.planner.PlannerConfig(0.2, beta=beta) for beta in (0, 0.0)]
        assert [type(cfg.beta) for cfg in configs] == [float, float]
        chosen = [resvd.planner.plan(model, calib, cfg) for cfg in configs]  # a miss, a hit
        assert plans() != []
        assert [plan_document(c, None, None) for c in chosen] == \
            [plan_document(chosen[1], None, None)] * 2
        state = tmp_path / "state-x.ercs"
        assert resvd.state_cache.plan_entry(state, configs[0]) == \
            resvd.state_cache.plan_entry(state, configs[1])


def test_the_oldest_state_is_evicted_and_a_hit_counts_as_use(passes):
    rng = np.random.default_rng(4)
    model = mlp(rng)
    sets = [CalibrationSet(samples=rng.standard_normal((30, 10)))
            for _ in range(resvd.state_cache.MAX_ENTRIES + 1)]
    entries = []
    for i, calib in enumerate(sets[:-1]):
        calibrate(model, calib, 2)
        [entry] = set(states()) - set(entries)
        os.utime(entry, ns=(i, i))  # distinct mtimes, whatever the clock's resolution
        entries.append(entry)
    calibrate(model, sets[0], 2)  # a hit on the oldest renews it
    assert passes["capture"] == len(entries)
    calibrate(model, sets[-1], 2)
    assert set(entries) - set(states()) == {entries[1]}
    assert len(states()) == resvd.state_cache.MAX_ENTRIES
