"""The benchmark tracer wraps package functions by name and counts the calls behind them.

``perfbench/tracer.py`` replaces attributes such as ``resvd.cli.compress_model``
and ``resvd.planner.layerwise_error`` in place. A rename or deletion of one
of them, or a move that takes a counted call past its wrapper, would
otherwise fail only the traced benchmark run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from resvd.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_uninstall_restores_it(monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    try:  # a name that fails to resolve must not leave earlier wraps installed
        tracer_mod.install(tracer)
        wrapped = list(tracer._undo)
        assert wrapped, "install wrapped nothing"
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_plan_counts_each_quantity_where_the_tracer_looks(monkeypatch, tmp_path):
    # One whitening and one whitened SVD per matrix of the largest tail, and
    # one compress_matrix per matrix of every candidate's tail.
    assert main(["gen-demo", "--out", str(tmp_path), "--layers", "4", "--width", "8",
                 "--samples", "32"]) == 0
    tracer_mod = load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    out = io.StringIO()
    try:
        tracer_mod.install(tracer)
        with contextlib.redirect_stdout(out):
            assert main(["plan", "--model", str(tmp_path), "--calib",
                         str(tmp_path / "calib.bin"), "--ratio", "0.2"]) == 0
    finally:
        tracer.uninstall()
    ks = [int(line.split(",")[0]) for line in out.getvalue().splitlines()[1:]]
    assert ks == [2, 3]
    metrics = tracer_mod.layer_metrics(tracer)
    assert metrics["calibration.whiten.calls"] == max(ks)
    assert metrics["linalg.svd_whitened.calls"] == max(ks)
    assert metrics["compensation.compress_matrix.calls"] == sum(ks)
