"""The benchmark tracer wraps package functions by name; every name must resolve.

``perfbench/tracer.py`` replaces attributes such as ``resvd.cli.compress_model``
and ``resvd.planner.layerwise_error`` in place. A rename or deletion of one
of them would otherwise fail only the traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
