"""The planner against a dense reference of the paper's equations (``dense_reference.py``).

The other planner tests rescore candidates through ``calibrate`` and
``compress_tail_layers``, the production pass, state and factoring, so a
fault in whitening, in a slice of ``U``, in the residual stage or in a
state read would sit on both sides. The reference shares none of that
code: it whitens, truncates and scores each candidate densely, over every
row at once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import dense_reference
import resvd.containers
import resvd.model as model_mod
import resvd.planner as planner_mod
from resvd.calibration import CalibrationSet
from resvd.model import Layer, MatrixEntry, SequentialModel
from resvd.planner import PlannerConfig, plan

N_LAYERS, ROWS, RATIO = 6, 40, 0.3
# The bound TestRowBlocks puts on scores taken in several blocks against one.
RTOL = 1e-12


def make_model(seed, activation, entries, widths):
    """``N_LAYERS`` layers of ``entries`` matrices each, whose widths cycle through ``widths``,
    with ``activation`` on every hidden layer (``"mixed"`` alternates relu and silu) and an
    identity head."""
    rng = np.random.default_rng(seed)
    dims = itertools.cycle(widths)
    cols = next(dims)
    layers = []
    for i in range(N_LAYERS):
        matrices = []
        for j in range(entries):
            rows = next(dims)
            matrices.append(MatrixEntry(name=f"w{j}", dense=rng.standard_normal((rows, cols))
                                        / np.sqrt(cols)))
            cols = rows
        act = ("identity" if i == N_LAYERS - 1 else
               activation if activation != "mixed" else ("relu", "silu")[i % 2])
        layers.append(Layer(name=f"layer{i}", entries=tuple(matrices), activation=act))
    return SequentialModel(layers=tuple(layers))


def planned_thrice(monkeypatch, tmp_path, model, samples, beta, blocks):
    """``plan`` of ``model`` on ``samples`` at ratio ``RATIO`` and ``beta``, in ``blocks`` row
    blocks, from a cache of its own: cold, on a state hit and on a plan hit."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"{beta}-{blocks}"))
    width = max(layer.output_dim for layer in model.layers)
    monkeypatch.setattr(model_mod, "BLOCK_BYTES", 8 * width * -(-len(samples) // blocks))
    assert len(model_mod.Workspace(len(samples), model).blocks) == blocks
    calib, cfg = CalibrationSet(samples=samples), PlannerConfig(overall_ratio=RATIO, beta=beta)
    counts = {"passes": 0, "factored": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(planner_mod, "capture_activations",
                        counted("passes", planner_mod.capture_activations))
    monkeypatch.setattr(planner_mod, "compress_matrix",
                        counted("factored", planner_mod.compress_matrix))
    runs = {}
    for run in ("cold", "state hit", "plan hit"):
        if run == "state hit":
            for entry in resvd.containers.cache_dir().glob("plan-*.ercp"):
                entry.unlink()
        counts.update(passes=0, factored=0)
        runs[run] = plan(model, calib, cfg)
        want = {"cold": (1, True), "state hit": (0, True), "plan hit": (0, False)}[run]
        assert (counts["passes"], counts["factored"] > 0) == want, run
    return runs


def assert_agrees(chosen, reference, where):
    """The same candidates, statuses and argmin, and every ``ok`` error within ``RTOL``."""
    assert [(row.k, row.status) for row in chosen.candidate_table] == \
        [(k, status) for k, _, status, _ in reference], where
    gap = 0.0
    for row, (_, ratio, status, error) in zip(chosen.candidate_table, reference):
        assert row.layer_ratio == ratio, where
        if status == "ok":
            gap = max(gap, abs(row.final_error - error) / error)
        else:
            assert math.isnan(row.final_error), where
    assert gap <= RTOL, (where, gap)
    assert chosen.k == min((error, k) for k, _, status, error in reference if status == "ok")[1]


@pytest.mark.parametrize("widths", [(16,), (16, 24)], ids=["square", "16-24"])
@pytest.mark.parametrize("entries", [1, 2])
@pytest.mark.parametrize("activation", ["relu", "silu", "mixed"])
def test_plan_agrees_with_the_dense_reference(tmp_path, monkeypatch, activation, entries,
                                              widths):
    # Every (beta, block count) pair, each cold, on a state hit (plan
    # entries deleted) and on a plan hit: 8 configurations per model.
    seed = ["relu", "silu", "mixed"].index(activation) * 4 + (entries - 1) * 2 + len(widths)
    model = make_model(seed, activation, entries, widths)
    samples = np.random.default_rng(100 + seed).standard_normal((ROWS, model.input_dim))
    layers = [([e.dense for e in layer.entries], layer.activation) for layer in model.layers]
    for beta in (0.0, 0.05):
        reference = dense_reference.candidate_table(layers, samples, RATIO, beta)
        assert [status for *_, status, _ in reference].count("ok") >= 2
        for blocks in (1, 3):
            runs = planned_thrice(monkeypatch, tmp_path, model, samples, beta, blocks)
            for run, chosen in runs.items():
                assert_agrees(chosen, reference, (beta, blocks, run))


@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_filters_and_thin_rows_agree_with_the_dense_reference(tmp_path, monkeypatch, beta):
    # At ratio 0.3 the smallest k leaves a 16 x 16 matrix no rank, so it is
    # no candidate; with 5 rows the largest k keeps rank 5, so it is a
    # failed row; the rest are scored.
    model = make_model(0, "mixed", 1, (16,))
    samples = np.random.default_rng(1).standard_normal((5, model.input_dim))
    layers = [([e.dense for e in layer.entries], layer.activation) for layer in model.layers]
    reference = dense_reference.candidate_table(layers, samples, RATIO, beta)
    assert [(k, status) for k, _, status, _ in reference] == \
        [(3, "ok"), (4, "ok"), (5, "failed")]
    for blocks in (1, 3):
        runs = planned_thrice(monkeypatch, tmp_path, model, samples, beta, blocks)
        for run, chosen in runs.items():
            assert_agrees(chosen, reference, (blocks, run))
