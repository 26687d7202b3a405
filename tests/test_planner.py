"""Planner tests: candidate enumeration against hand-derived sets, argmin
selection against a brute-force oracle, and budget bookkeeping."""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import resvd.calibration
import resvd.compensation
import resvd.linalg
import resvd.model as model_mod
import resvd.planner as planner_mod
from resvd.calibration import CalibrationSet, gram, whiten
from resvd.compensation import whitened_weight
from resvd.demo import demo_calibration, demo_model
from resvd.errors import CompressionError, InfeasiblePlanError, NumericalError
from resvd.model import Layer, MatrixEntry, SequentialModel, layerwise_error, parameter_count
from resvd.planner import (
    CalibratedModel,
    CompressionPlan,
    PlannerConfig,
    calibrate,
    compress_model,
    compress_tail_layers,
    enumerate_candidates,
    plan,
)


def make_mlp(rng, n_layers, width, activation="relu", last="identity"):
    layers = []
    for i in range(n_layers):
        w = rng.standard_normal((width, width)) / np.sqrt(width)
        act = last if i == n_layers - 1 else activation
        layers.append(
            Layer(
                name=f"layer{i}",
                entries=(MatrixEntry(name="w", dense=w),),
                activation=act,
            )
        )
    return SequentialModel(layers=tuple(layers))


def make_multi_entry_mlp(rng, n_layers, width, entries, dead_layer=None):
    """Relu stack with ``entries`` weights per layer; ``dead_layer`` outputs all zeros."""
    layers = []
    for i in range(n_layers):
        ws = [rng.standard_normal((width, width)) / np.sqrt(width) for _ in range(entries)]
        if i == dead_layer:
            ws[-1] = -np.abs(ws[-1])
            ws[:-1] = [np.abs(w) for w in ws[:-1]]
        layers.append(
            Layer(
                name=f"layer{i}",
                entries=tuple(MatrixEntry(name=f"w{j}", dense=w)
                              for j, w in enumerate(ws)),
                activation="identity" if i == n_layers - 1 else "relu",
            )
        )
    return SequentialModel(layers=tuple(layers))


def make_rectangular(rng, n_layers, width, wide):
    """Relu stack whose layers alternate ``wide x width`` and ``width x wide`` weights, with an
    identity head."""
    layers = []
    for i in range(n_layers):
        rows, cols = (wide, width) if i % 2 == 0 else (width, wide)
        layers.append(
            Layer(
                name=f"layer{i}",
                entries=(MatrixEntry(name="w", dense=rng.standard_normal((rows, cols))
                                     / np.sqrt(cols)),),
                activation="identity" if i == n_layers - 1 else "relu",
            )
        )
    return SequentialModel(layers=tuple(layers))


def model_bytes(model):
    return [
        [a.tobytes() for a in ((e.factors.u_hat, e.factors.v_hat) if e.is_factored else (e.dense,))]
        for layer in model.layers for e in layer.entries
    ]


def make_calib(rng, n, dim):
    return CalibrationSet(samples=rng.standard_normal((n, dim)))


def with_silu(model):
    """``model`` with every other hidden layer switched from relu to silu."""
    layers = tuple(dataclasses.replace(layer, activation="silu")
                   if i % 2 and layer.activation == "relu" else layer
                   for i, layer in enumerate(model.layers))
    return dataclasses.replace(model, layers=layers)


def allocating_forward(model, x):
    """Every layer's output, each product and activation allocating a fresh array."""
    out, h = [], x
    ws = model_mod.Workspace(len(x), model)
    for layer in model.layers:
        for e in layer.entries:
            h = e.apply(h, np.empty((len(h), e.rows)), ws)
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        elif layer.activation == "silu":
            h = h * (0.5 + 0.5 * np.tanh(0.5 * h))
        out.append(h)
    return out


def two_pass_layerwise_error(original, compressed, x):
    """Per-layer relative errors as computed before scoring walked both
    models in step: every reference output first, then the compressed ones."""
    ref = allocating_forward(original, x)
    norms = [float(np.linalg.norm(y)) for y in ref]
    return tuple(math.nan if norm == 0.0 else float(np.linalg.norm(y - y_ref)) / norm
                 for y, y_ref, norm in zip(allocating_forward(compressed, x), ref, norms))


def spilled(state):
    """The calibrated model output, read back whole from the file it was spilled to."""
    return state.output.read(0, np.empty(state.output.shape))


def peak_arrays(run, nbytes):
    """Peak of the bytes ``run()`` holds at once, in arrays of ``nbytes`` each."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / nbytes
    finally:
        if started:
            tracemalloc.stop()


class TestEnumerateCandidates:
    def test_hand_case_32_layers(self):
        cfg = PlannerConfig(overall_ratio=0.2, step=1)
        ks = [k for k, _ in enumerate_candidates(32, cfg)]
        assert ks == list(range(7, 32))

    def test_exact_boundary_excluded(self):
        # N=8, R_o=0.5: k=4 gives R_l exactly 1.0 and must be dropped.
        cfg = PlannerConfig(overall_ratio=0.5, step=1)
        ks = [k for k, _ in enumerate_candidates(8, cfg)]
        assert ks == [5, 6, 7]

    def test_step_two(self):
        cfg = PlannerConfig(overall_ratio=0.5, step=2)
        assert [k for k, _ in enumerate_candidates(8, cfg)] == [6]

    def test_ratios_match_budget(self):
        cfg = PlannerConfig(overall_ratio=0.25, step=1)
        for k, ratio in enumerate_candidates(12, cfg):
            assert ratio == pytest.approx(12 * 0.25 / k)
            assert ratio < 1.0

    def test_infeasible_when_budget_too_large(self):
        cfg = PlannerConfig(overall_ratio=0.9, step=1)
        with pytest.raises(InfeasiblePlanError):
            enumerate_candidates(4, cfg)

    def test_too_few_layers(self):
        cfg = PlannerConfig(overall_ratio=0.5, step=1)
        with pytest.raises(InfeasiblePlanError):
            enumerate_candidates(1, cfg)

    def test_shapes_filter_drops_rankless_candidates(self):
        # Width 4 means alpha = 2; a layer ratio of 0.6 already floors the
        # rank to zero, so only the k=3 candidate survives.
        cfg = PlannerConfig(overall_ratio=0.3, step=1)
        shapes = [[(4, 4)] for _ in range(4)]
        bare = [k for k, _ in enumerate_candidates(4, cfg)]
        filtered = [k for k, _ in enumerate_candidates(4, cfg, layer_shapes=shapes)]
        assert bare == [2, 3]
        assert filtered == [3]

    def test_shapes_filter_can_empty_the_set(self):
        cfg = PlannerConfig(overall_ratio=0.45, step=1)
        shapes = [[(4, 4)] for _ in range(4)]
        with pytest.raises(InfeasiblePlanError):
            enumerate_candidates(4, cfg, layer_shapes=shapes)


class TestCompressTailLayers:
    def test_prefix_layers_are_shared(self):
        rng = np.random.default_rng(11)
        model = make_mlp(rng, 5, 12)
        calib = make_calib(rng, 40, 12)
        state = calibrate(model, calib, 2)
        out = compress_tail_layers(state, k=2, layer_ratio=0.4, beta=0.05)
        for i in range(3):
            assert out.layers[i] is model.layers[i]
        for i in range(3, 5):
            assert out.layers[i].entries[0].is_factored

    def test_whole_model_when_k_equals_n(self):
        rng = np.random.default_rng(12)
        model = make_mlp(rng, 3, 10)
        calib = make_calib(rng, 30, 10)
        state = calibrate(model, calib, 3)
        out = compress_tail_layers(state, k=3, layer_ratio=0.3, beta=0.05)
        assert all(layer.entries[0].is_factored for layer in out.layers)

    def test_rejects_factored_input(self):
        rng = np.random.default_rng(13)
        model = make_mlp(rng, 3, 10)
        calib = make_calib(rng, 30, 10)
        state = calibrate(model, calib, 3)
        once = compress_tail_layers(state, k=3, layer_ratio=0.3, beta=0.05)
        with pytest.raises(CompressionError):
            calibrate(once, calib, 1)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(14)
        model = make_mlp(rng, 3, 10)
        calib = make_calib(rng, 30, 10)
        state = calibrate(model, calib, 3)
        with pytest.raises(ValueError):
            compress_tail_layers(state, k=0, layer_ratio=0.3, beta=0.05)
        with pytest.raises(ValueError):
            compress_tail_layers(state, k=4, layer_ratio=0.3, beta=0.05)
        state = calibrate(model, calib, 2)
        with pytest.raises(ValueError, match=r"^k=3 .*last 2 of 3 layers"):
            compress_tail_layers(state, k=3, layer_ratio=0.3, beta=0.05)


class TestPlan:
    def test_matches_brute_force(self):
        # Re-run every candidate by hand and take the argmin with ties going
        # to the smaller k; the planner must agree exactly.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = make_mlp(rng, 6, 16)
            calib = make_calib(rng, 48, 16)
            cfg = PlannerConfig(overall_ratio=0.3, step=1, seed=seed)

            chosen = plan(model, calib, cfg)

            state = calibrate(model, calib, 6)
            best_k, best_err = None, math.inf
            for k, ratio in enumerate_candidates(6, cfg, layer_shapes=[[(16, 16)]] * 6):
                trial = compress_tail_layers(state, k, ratio, cfg.beta)
                err = layerwise_error(model, trial, calib)[-1]
                if err < best_err:
                    best_k, best_err = k, err
            assert chosen.k == best_k, f"seed {seed}"
            assert chosen.chosen_error == best_err, f"seed {seed}"

    @pytest.mark.parametrize("entries", [1, 2])
    def test_candidate_scores_equal_full_forward_exactly(self, entries):
        # Tail-only scoring against the captured reference must reproduce a
        # full-model layerwise_error bit for bit, and the plan's kept trial
        # must store what compress_model builds.
        rng = np.random.default_rng(27)
        model = make_multi_entry_mlp(rng, 6, 14, entries)
        calib = make_calib(rng, 40, 14)
        cfg = PlannerConfig(overall_ratio=0.3)
        chosen = plan(model, calib, cfg)
        state = calibrate(model, calib, 6)
        assert all(row.status == "ok" for row in chosen.candidate_table)
        for row in chosen.candidate_table:
            trial = compress_tail_layers(state, row.k, row.layer_ratio, cfg.beta)
            assert row.final_error == layerwise_error(model, trial, calib)[-1], row.k
        rebuilt = compress_model(model, calib, chosen)
        assert model_bytes(chosen.compressed) == model_bytes(rebuilt)

    @pytest.mark.parametrize("entries", [1, 2])
    def test_scores_equal_the_two_pass_formula_exactly(self, entries):
        # The planner's scores and layerwise_error share one scoring loop, so
        # the test above cannot see that loop drift; an independent copy of
        # the two-pass formula can.
        rng = np.random.default_rng(30)
        model = with_silu(make_multi_entry_mlp(rng, 6, 14, entries))
        calib = make_calib(rng, 40, 14)
        cfg = PlannerConfig(overall_ratio=0.3)
        chosen = plan(model, calib, cfg)
        state = calibrate(model, calib, 6)
        for row in chosen.candidate_table:
            trial = compress_tail_layers(state, row.k, row.layer_ratio, cfg.beta)
            want = two_pass_layerwise_error(model, trial, calib.samples)
            assert layerwise_error(model, trial, calib) == want, row.k
            assert row.final_error == want[-1], row.k
        assert layerwise_error(model, chosen.compressed, calib) == two_pass_layerwise_error(
            model, chosen.compressed, calib.samples)

    def test_plan_scores_each_candidate_once(self, monkeypatch):
        # One relative error per candidate, always its final layer's, and
        # nothing else: the winner's per-layer errors are compress's to score.
        rng = np.random.default_rng(32)
        model = make_multi_entry_mlp(rng, 6, 14, 2)
        calib = make_calib(rng, 40, 14)
        scored = []

        def squared_error(y, y_ref):
            scored.append(float(np.linalg.norm(y_ref)))
            return real(y, y_ref)

        real = model_mod._squared_error
        monkeypatch.setattr(model_mod, "_squared_error", squared_error)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3))
        ok = [row for row in chosen.candidate_table if row.status == "ok"]
        assert len(ok) == len(chosen.candidate_table) > 1
        assert scored == [calibrate(model, calib, 6).reference_norms[-1]] * len(ok)

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_final_errors_equal_the_last_entry_of_a_full_walk(self, beta):
        # Scoring the final layer alone gives, bit for bit, the last entry of
        # every layer's error from a test-local walk of the whole model.
        rng = np.random.default_rng(33)
        model = with_silu(make_multi_entry_mlp(rng, 6, 14, 2))
        calib = make_calib(rng, 40, 14)
        cfg = PlannerConfig(overall_ratio=0.3, beta=beta)
        chosen = plan(model, calib, cfg)
        state = calibrate(model, calib, 6)
        assert all(row.status == "ok" for row in chosen.candidate_table)
        for row in chosen.candidate_table:
            trial = compress_tail_layers(state, row.k, row.layer_ratio, beta)
            want = two_pass_layerwise_error(model, trial, calib.samples)
            assert row.final_error == want[-1], row.k

    def test_plan_writes_neither_calibration_nor_captured_inputs(self, monkeypatch):
        # Activations run in place on fresh matmul outputs only, and scoring
        # subtracts in place into each trial output alone: planning leaves
        # the calibration rows and the spilled reference output as they were,
        # and that output is the model's own.
        rng = np.random.default_rng(31)
        model = with_silu(make_multi_entry_mlp(rng, 6, 14, 2))
        calib = make_calib(rng, 40, 14)
        samples = calib.samples.copy()
        states = []

        def calibrate(*args):
            state = real_calibrate(*args)
            states.append((state, spilled(state)))
            return state

        real_calibrate = planner_mod.calibrate
        monkeypatch.setattr(planner_mod, "calibrate", calibrate)
        plan(model, calib, PlannerConfig(overall_ratio=0.3))
        (state, before_scoring), = states
        assert np.array_equal(calib.samples, samples)
        assert np.array_equal(spilled(state), before_scoring)
        assert np.array_equal(spilled(state), allocating_forward(model, samples)[-1])

    def test_a_second_plan_leaves_the_first_as_it_was(self, monkeypatch):
        # Each plan runs in a workspace of its own, and nothing a plan
        # returns or keeps lives in one: a second plan in the same process
        # leaves the first one's trial and table as they were, and the
        # calibrated output is in a file of its own, not in any workspace buffer.
        rng = np.random.default_rng(34)
        model = with_silu(make_multi_entry_mlp(rng, 6, 14, 3))
        cfg = PlannerConfig(overall_ratio=0.3)
        workspaces, states = [], []

        class Recorded(model_mod.Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                workspaces.append(self)

        def calibrate(*args):
            states.append(real_calibrate(*args))
            return states[-1]

        real_calibrate = planner_mod.calibrate
        monkeypatch.setattr(planner_mod, "Workspace", Recorded)
        monkeypatch.setattr(planner_mod, "calibrate", calibrate)
        first = plan(model, make_calib(rng, 40, 14), cfg)
        kept = (model_bytes(first.compressed), first.candidate_table)
        output = spilled(states[0])
        second = plan(model, make_calib(rng, 40, 14), cfg)
        assert second.candidate_table != first.candidate_table
        assert model_bytes(second.compressed) != kept[0]
        assert (model_bytes(first.compressed), first.candidate_table) == kept
        assert np.array_equal(spilled(states[0]), output)

        assert len(workspaces) == 2
        buffers = [b for ws in workspaces for b in ws.buffers()]
        assert len(buffers) == 2 * 6  # three outputs, the scratch pair and the rank scratch
        kept_arrays = [a for chosen in (first, second) for layer in chosen.compressed.layers
                       for e in layer.entries if e.is_factored
                       for a in (e.factors.u_hat, e.factors.v_hat)]
        assert all(isinstance(state.output, resvd.calibration.RowFile) for state in states)
        for a in kept_arrays:
            assert not any(np.may_share_memory(a, b) for b in buffers)

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_the_winner_rebuilt_after_the_scan_is_the_trial_scored(self, beta):
        # The scan keeps only the best trial's residual stages and cuts the
        # whitened truncation again once it ends: the plan's trial stores
        # what compress_tail_layers builds for the winner, bit for bit.
        rng = np.random.default_rng(35)
        model = make_multi_entry_mlp(rng, 6, 14, 2)
        calib = make_calib(rng, 40, 14)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=beta))
        trial = compress_tail_layers(calibrate(model, calib, 6), chosen.k, chosen.layer_ratio, beta)
        assert model_bytes(chosen.compressed) == model_bytes(trial)
        factored = [e.factors.rank for layer in trial.layers for e in layer.entries
                    if e.is_factored]
        assert len(factored) == 2 * chosen.k and all(r > 1 for r in factored)

    def test_zero_output_layer_rejected_before_whitening(self):
        # A relu layer whose output is all zero zeroes every later layer too,
        # so no candidate's error is defined: calibrate names the layer before
        # whitening its successor, which would fail at the default ridge.
        # layerwise_error still scores such a pair: 0.0, then nan.
        rng = np.random.default_rng(28)
        model = make_multi_entry_mlp(rng, 5, 12, 2, dead_layer=1)
        calib = make_calib(rng, 40, 12)
        for run in (lambda: planner_mod.calibrate(model, calib, 4),
                    lambda: plan(model, calib, PlannerConfig(overall_ratio=0.3))):
            with pytest.raises(NumericalError, match=r"^layer1: output is all zeros"):
                run()
        whitened, h = {}, calib.samples
        ws = model_mod.Workspace(len(h), model)
        for layer in model.layers:
            for e in layer.entries:
                key = f"{layer.name}/{e.name}"
                whitened[key] = whitened_weight(e.dense, whiten(gram(h), ridge=1e-3), key)
                h = e.apply(h, np.empty((len(h), e.rows)), ws)
            h = model_mod.apply_activation(layer.activation, h, ws)
        state = CalibratedModel(model=model, whitened=whitened, reference_norms=(),
                                output=h)
        for k in (2, 3, 4):
            trial = compress_tail_layers(state, k, 5 * 0.3 / k, 0.05)
            errors = layerwise_error(model, trial, calib)
            assert errors[0] == 0.0
            assert all(math.isnan(v) for v in errors[1:]), k

    def test_calibrated_state_holds_two_arrays_per_tail_matrix(self):
        # Each whitened record holds two arrays: the weight, which the model
        # already holds, and U of svd(W S) (with sigma); V^T and S^{-1} are
        # never kept. On wide square matrices and few rows the activations
        # are small, so the state calibrate returns holds one new n x n array
        # per tail matrix and little else.
        rng = np.random.default_rng(37)
        n, k = 96, 3
        model = make_mlp(rng, 4, n)
        calib = make_calib(rng, 8, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = calibrate(model, calib, k)
            held = (tracemalloc.get_traced_memory()[0] - base) / (n * n * 8)
        finally:
            tracemalloc.stop()
        assert len(state.whitened) == k
        assert k < held < k + 0.3, held

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_the_scan_holds_one_trial_layer_at_a_time(self, monkeypatch, beta):
        # Each candidate factors its tail layers one at a time, each just
        # before it runs, and drops each once it has run: whenever a matrix
        # is factored, every factor pair built for another layer, of this
        # candidate or an earlier one, is gone.
        rng = np.random.default_rng(38)
        model = make_multi_entry_mlp(rng, 6, 14, 2)
        calib = make_calib(rng, 40, 14)
        built, overlaps = [], []
        real = planner_mod.compress_matrix

        def compress_matrix(weight, layer_ratio, beta, name="matrix"):
            layer = (layer_ratio, name.split("/")[0])
            overlaps.extend((layer, other) for other, pair in built
                            if other != layer and pair() is not None)
            pair = real(weight, layer_ratio, beta, name)
            built.append((layer, weakref.ref(pair)))
            return pair

        monkeypatch.setattr(planner_mod, "compress_matrix", compress_matrix)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=beta))
        assert len(chosen.candidate_table) > 1
        assert len(built) == 2 * sum(row.k for row in chosen.candidate_table)
        assert overlaps == []

    def test_a_run_of_one_block_keeps_the_best_memo_only(self, monkeypatch):
        # Each residual stage a candidate's memo keeps is watched through a
        # weak reference. Whenever a candidate factors a matrix, no other
        # candidate's stages are alive but the best scored so far's: every
        # other memo was dropped as soon as its candidate was scored.
        rng = np.random.default_rng(41)
        model = make_multi_entry_mlp(rng, 8, 32, 2)
        calib = make_calib(rng, 48, 32)
        stages, alive = [], []
        real = planner_mod._trial_factor

        def trial_factor(state, layer_ratio, beta, residual):
            factor = real(state, layer_ratio, beta, residual)

            def watched(key):
                fresh = key not in residual
                if fresh:
                    alive.append((layer_ratio, {ratio for ratio, stage in stages
                                                if ratio != layer_ratio and stage() is not None}))
                pair = factor(key)
                if fresh:
                    stages.append((layer_ratio, weakref.ref(residual[key])))
                return pair

            return watched

        monkeypatch.setattr(planner_mod, "_trial_factor", trial_factor)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=0.05))
        assert len(model_mod.Workspace(48, model).blocks) == 1
        rows = chosen.candidate_table
        assert [row.status for row in rows].count("ok") >= 4
        assert len(stages) == 2 * sum(row.k for row in rows)
        for ratio, others in alive:
            earlier = [(row.final_error, row.k, row.layer_ratio) for row in rows
                       if row.layer_ratio < ratio]  # larger k, scored earlier
            best = {min(earlier)[2]} if earlier else set()
            assert others <= best, (ratio, others, best)
        assert any(others for _, others in alive)

    def test_plan_memory_does_not_grow_with_depth(self):
        # The calibration pass keeps only the model's output, and one walk of
        # the original layers feeds each candidate its input: plan holds a few
        # activation arrays plus the tail's whitened factors, whatever the
        # depth.
        peaks = {}
        for n_layers in (8, 32):
            model = demo_model(n_layers=n_layers, width=16, seed=0)
            calib = demo_calibration(n_samples=2048, width=16, seed=0)
            peaks[n_layers] = peak_arrays(
                lambda: plan(model, calib, PlannerConfig(overall_ratio=0.2)),
                calib.samples.nbytes)
        assert peaks[32] < peaks[8] + 1, peaks
        assert peaks[32] < 10, peaks

    def test_overflowing_output_norm_is_named(self):
        # The last layer's outputs are finite but their norm is not; scored
        # anyway, every candidate would read error/inf = 0, a perfect score.
        rng = np.random.default_rng(29)
        model = make_mlp(rng, 4, 6)
        last = model.layers[-1]
        big = MatrixEntry(name="w", dense=last.entries[0].dense * 1e200)
        model = dataclasses.replace(
            model, layers=model.layers[:-1] + (dataclasses.replace(last, entries=(big,)),))
        with pytest.raises(NumericalError, match=r"^layer3: output norm overflows float64"):
            plan(model, make_calib(rng, 24, 6), PlannerConfig(overall_ratio=0.3))

    def test_argmin_over_reported_table(self):
        rng = np.random.default_rng(21)
        model = make_mlp(rng, 5, 14)
        calib = make_calib(rng, 50, 14)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.25))
        ok = [row for row in chosen.candidate_table if row.status == "ok"]
        low = min(row.final_error for row in ok)
        first = next(row for row in ok if row.final_error == low)
        assert chosen.k == first.k
        assert chosen.chosen_error == low

    def test_ties_and_the_reraised_failure_go_to_the_smallest_k(self, tmp_path, monkeypatch):
        # Candidates are scored largest k first; the table, the tie-break
        # and the failure re-raised when every candidate fails still follow
        # ascending k.
        rng = np.random.default_rng(23)
        model = make_mlp(rng, 6, 12)
        calib = make_calib(rng, 36, 12)
        cfg = PlannerConfig(overall_ratio=0.3)
        ks = [k for k, _ in enumerate_candidates(6, cfg, layer_shapes=[[(12, 12)]] * 6)]
        monkeypatch.setattr(planner_mod, "_scored", lambda *args: 0.5)
        chosen = plan(model, calib, cfg)
        assert [row.k for row in chosen.candidate_table] == ks
        assert chosen.k == ks[0]

        def failing(state, k, *args):
            raise NumericalError(f"k={k} failed")

        monkeypatch.setattr(planner_mod, "_scored", failing)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))  # so the scan runs
        with pytest.raises(NumericalError, match=rf"^k={ks[0]} failed$"):
            plan(model, calib, cfg)

    def test_table_is_ascending_and_complete(self):
        rng = np.random.default_rng(22)
        model = make_mlp(rng, 6, 12)
        calib = make_calib(rng, 36, 12)
        cfg = PlannerConfig(overall_ratio=0.3)
        chosen = plan(model, calib, cfg)
        ks = [row.k for row in chosen.candidate_table]
        expected = [k for k, _ in enumerate_candidates(6, cfg, layer_shapes=[[(12, 12)]] * 6)]
        assert ks == expected
        assert ks == sorted(ks)

    def test_budget_identity_exact(self):
        rng = np.random.default_rng(23)
        model = make_mlp(rng, 8, 16)
        calib = make_calib(rng, 48, 16)
        for ratio in (0.2, 0.25, 0.3, 0.5):
            chosen = plan(model, calib, PlannerConfig(overall_ratio=ratio))
            assert chosen.k * chosen.layer_ratio_exact == Fraction(ratio) * 8

    def test_failed_candidates_are_tabulated_not_fatal(self, monkeypatch):
        rng = np.random.default_rng(25)
        model = make_mlp(rng, 5, 12)
        calib = make_calib(rng, 40, 12)
        real = planner_mod._scored

        def flaky(state, k, *args):
            if k == 2:
                raise CompressionError("injected failure")
            return real(state, k, *args)

        monkeypatch.setattr(planner_mod, "_scored", flaky)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3))
        failed = [row for row in chosen.candidate_table if row.status == "failed"]
        assert [row.k for row in failed] == [2]
        assert "injected failure" in failed[0].reason
        assert math.isnan(failed[0].final_error)
        assert chosen.k != 2

    def test_all_failures_raise(self, monkeypatch):
        rng = np.random.default_rng(26)
        model = make_mlp(rng, 4, 12)
        calib = make_calib(rng, 40, 12)

        def broken(state, k, *args):
            raise CompressionError("nope")

        monkeypatch.setattr(planner_mod, "_scored", broken)
        with pytest.raises(InfeasiblePlanError):
            plan(model, calib, PlannerConfig(overall_ratio=0.3))


class TestThinCalibration:
    # 6 layers of width 32 at R_o = 0.2: candidates k = 2..5 keep ranks
    # r = 6, 9, 11 and 12 in each tail matrix (alpha = 16).
    RANKS = {2: 6, 3: 9, 4: 11, 5: 12}

    def planned(self, monkeypatch, rows, check=True):
        rng = np.random.default_rng(45)
        model = make_mlp(rng, 6, 32)
        calib = make_calib(rng, 64, 32).subsample(rows, seed=1)
        if not check:
            monkeypatch.setattr(planner_mod, "_too_thin", lambda *args: None)
        return plan(model, calib, PlannerConfig(overall_ratio=0.2))

    def test_kept_ranks(self):
        cfg = PlannerConfig(overall_ratio=0.2)
        shapes = [[(32, 32)]] * 6
        for k, ratio in enumerate_candidates(6, cfg, shapes):
            assert resvd.linalg.rank_budget(32, 32, ratio, cfg.beta).r == self.RANKS[k]

    def test_rows_just_above_every_kept_rank_plan_as_without_the_check(self, monkeypatch):
        got = self.planned(monkeypatch, max(self.RANKS.values()) + 1)
        want = self.planned(monkeypatch, max(self.RANKS.values()) + 1, check=False)
        assert all(row.status == "ok" for row in got.candidate_table)
        assert got == want
        assert model_bytes(got.compressed) == model_bytes(want.compressed)

    @pytest.mark.parametrize("rows", [12, 11, 7])
    def test_a_candidate_with_no_more_rows_than_a_kept_rank_is_a_failed_row(self, monkeypatch,
                                                                            rows):
        # Each candidate whose kept rank reaches the row count fails, naming
        # its first tail matrix; the others score what they score unchecked.
        got = self.planned(monkeypatch, rows)
        want = self.planned(monkeypatch, rows, check=False)
        for row, unchecked in zip(got.candidate_table, want.candidate_table, strict=True):
            if rows <= self.RANKS[row.k]:
                assert row.status == "failed" and math.isnan(row.final_error)
                assert row.reason == (
                    f"layer{6 - row.k}/w: calibration rows in use ({rows}) do not exceed the "
                    f"kept rank {self.RANKS[row.k]}, so its error would measure the ridge, "
                    "not the compression")
            else:
                assert row == unchecked
        best = min((row.final_error, row.k) for row in got.candidate_table
                   if row.status == "ok")
        assert (got.chosen_error, got.k) == best

    def test_every_candidate_too_thin_raises_the_smallest_ones_reason_before_any_pass(
            self, monkeypatch):
        monkeypatch.setattr(planner_mod, "calibrate", None)  # no pass may run
        with pytest.raises(InfeasiblePlanError,
                           match=r"^layer4/w: calibration rows in use \(6\) do not exceed "
                                 r"the kept rank 6,"):
            self.planned(monkeypatch, 6)


def block_bytes(rows, width, blocks):
    """A ``BLOCK_BYTES`` under which ``rows`` rows of ``width`` run as ``blocks`` blocks."""
    return 8 * width * -(-rows // blocks)


class TestRowBlocks:
    # The same inputs at 1, 2 and 3 blocks: 41 rows run as 41, as 21 + 20 and
    # as 14 + 14 + 13, so every run of several blocks ends in a ragged one.
    ROWS, WIDTH = 41, 14

    def planned(self, monkeypatch, beta):
        rng = np.random.default_rng(39)
        model = with_silu(make_multi_entry_mlp(rng, 6, self.WIDTH, 2))
        calib = make_calib(rng, self.ROWS, self.WIDTH)
        runs = {}
        for blocks in (1, 2, 3):
            monkeypatch.setattr(model_mod, "BLOCK_BYTES", block_bytes(self.ROWS, self.WIDTH, blocks))
            sizes = [r.stop - r.start for r in model_mod.Workspace(self.ROWS, model).blocks]
            assert len(sizes) == blocks and sum(sizes) == self.ROWS
            assert blocks == 1 or sizes[-1] < sizes[0]
            chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=beta))
            runs[blocks] = (chosen, calibrate(model, calib, 6),
                            layerwise_error(model, chosen.compressed, calib))
        return model, calib, runs

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_blocks_choose_the_same_k_within_rounding(self, monkeypatch, beta):
        _, _, runs = self.planned(monkeypatch, beta)
        one = runs[1][0]
        for blocks, (chosen, _, _) in runs.items():
            assert chosen.k == one.k, blocks
            table = [(row.k, row.status) for row in chosen.candidate_table]
            assert table == [(row.k, row.status) for row in one.candidate_table], blocks
            np.testing.assert_allclose([row.final_error for row in chosen.candidate_table],
                                       [row.final_error for row in one.candidate_table],
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_every_score_is_the_last_entry_of_layerwise_error_bit_for_bit(self, monkeypatch,
                                                                          beta):
        # The planner and layerwise_error sum one block's squares after
        # another in the same order, so each candidate's score is the last
        # entry of its trial's curve, at any block count.
        model, calib, runs = self.planned(monkeypatch, beta)
        for blocks, (chosen, state, errors) in runs.items():
            monkeypatch.setattr(model_mod, "BLOCK_BYTES", block_bytes(self.ROWS, self.WIDTH, blocks))
            assert chosen.chosen_error == errors[-1], blocks
            for row in chosen.candidate_table:
                trial = compress_tail_layers(state, row.k, row.layer_ratio, beta)
                assert row.final_error == layerwise_error(model, trial, calib)[-1], (blocks, row.k)

    def test_blocks_walk_the_rows_one_pass_walks(self, monkeypatch):
        # forward copies each block's outputs out, and the calibration pass
        # sums each Gram matrix and squared norm over the blocks: each
        # agrees with the one-block pass within rounding, and one block is
        # the single pass, bit for bit.
        rng = np.random.default_rng(40)
        model = with_silu(make_multi_entry_mlp(rng, 5, self.WIDTH, 2))
        calib = make_calib(rng, self.ROWS, self.WIDTH)
        grams = {}

        def whiten(gram, ridge=None):
            grams.setdefault(blocks, []).append(gram.copy())
            return real_whiten(gram, ridge)

        real_whiten = resvd.calibration.whiten
        monkeypatch.setattr(resvd.calibration, "whiten", whiten)
        passes = {}
        for blocks in (1, 2, 3):
            monkeypatch.setattr(model_mod, "BLOCK_BYTES", block_bytes(self.ROWS, self.WIDTH, blocks))
            passes[blocks] = (model_mod.forward(model, calib.samples), calibrate(model, calib, 5))
        outputs, state = passes[1]
        h = calib.samples
        for layer, y in zip(model.layers, outputs):
            for e in layer.entries:
                assert grams[1].pop(0).tobytes() == (h.T @ h).tobytes()
                h = h @ e.dense.T
            h = y
        assert state.reference_norms == tuple(float(np.linalg.norm(y)) for y in outputs)
        for blocks in (2, 3):
            got, got_state = passes[blocks]
            for a, b in zip(got, outputs, strict=True):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(spilled(got_state), spilled(state), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got_state.reference_norms, state.reference_norms,
                                       rtol=1e-12, atol=0.0)
            for key, weight in state.whitened.items():
                np.testing.assert_allclose(got_state.whitened[key].sigma, weight.sigma,
                                           rtol=1e-10)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_the_first_fault_in_forward_order_is_named_across_blocks(self, monkeypatch,
                                                                     blocks):
        # Six layers scale by 1e60 each: rows of order one overflow at layer5,
        # the rows of order 1e130 in the second half already at layer2. The
        # first block walks to layer5 first, yet every run names layer2.
        model = SequentialModel(layers=tuple(
            Layer(name=f"layer{i}", entries=(MatrixEntry(name="w", dense=1e60 * np.eye(2)),))
            for i in range(6)))
        samples = np.ones((6, 2))
        samples[3:] = 1e130
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", block_bytes(6, 2, blocks))
        assert len(model_mod.Workspace(6, model).blocks) == blocks
        with pytest.raises(NumericalError, match=r"^layer2/w: output overflows float64"):
            calibrate(model, CalibrationSet(samples=samples), 1)

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_a_candidate_that_fails_after_its_first_block_is_a_failed_row(self, tmp_path,
                                                                         monkeypatch, beta):
        # At 3 blocks, each candidate in turn fails on its second block, after
        # its first block factored it. It is a failed row with its reason;
        # every other row is the unfaulted run's, bit for bit; and the winner
        # is the unfaulted one, or, when that one failed, the argmin of the
        # rest, built as compress_tail_layers builds it.
        rng = np.random.default_rng(39)
        model = with_silu(make_multi_entry_mlp(rng, 6, self.WIDTH, 2))
        calib = make_calib(rng, self.ROWS, self.WIDTH)
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", block_bytes(self.ROWS, self.WIDTH, 3))
        cfg = PlannerConfig(overall_ratio=0.3, beta=beta)
        unfaulted = plan(model, calib, cfg)
        assert all(row.status == "ok" for row in unfaulted.candidate_table)
        state = calibrate(model, calib, 6)
        real = planner_mod._scored

        def planned_failing(failing):
            blocks = []

            def flaky(state, k, *args):
                if k == failing:
                    blocks.append(k)
                    if len(blocks) == 2:
                        raise CompressionError(f"k={k} failed in its second block")
                return real(state, k, *args)

            monkeypatch.setattr(planner_mod, "_scored", flaky)
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cold{failing}"))  # scans
            chosen = plan(model, calib, cfg)
            assert len(blocks) == 2  # its third block was not scored
            return chosen

        for failing in [row.k for row in unfaulted.candidate_table]:
            chosen = planned_failing(failing)
            for row, want in zip(chosen.candidate_table, unfaulted.candidate_table, strict=True):
                if row.k == failing:
                    assert row.status == "failed" and math.isnan(row.final_error)
                    assert row.reason == f"k={failing} failed in its second block"
                else:
                    assert row == want
            rest = min((row.final_error, row.k) for row in unfaulted.candidate_table
                       if row.k != failing)
            assert (chosen.chosen_error, chosen.k) == rest
            if failing != unfaulted.k:
                assert model_bytes(chosen.compressed) == model_bytes(unfaulted.compressed)
            trial = compress_tail_layers(state, chosen.k, chosen.layer_ratio, beta)
            assert model_bytes(chosen.compressed) == model_bytes(trial), failing

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_workspace_and_plan_memory_do_not_grow_with_rows(self, monkeypatch, cache):
        # At 8x the rows the workspace holds the same block buffers, and plan
        # holds what it holds at 1x, the model's output included: that output
        # is spilled to a file, or read from the calibrated-state entry a
        # warm run finds, so no activation of all the rows is ever held.
        width, per_block = 16, 512
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", 8 * width * per_block)
        model = demo_model(n_layers=8, width=width, seed=0)
        workspaces = []

        class Recorded(model_mod.Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                workspaces.append(self)

        monkeypatch.setattr(planner_mod, "Workspace", Recorded)
        held, peaks = {}, {}
        for times in (1, 8):
            calib = demo_calibration(n_samples=times * per_block, width=width, seed=0)
            if cache == "warm":
                plan(model, calib, PlannerConfig(overall_ratio=0.2))
            peak = peak_arrays(lambda: plan(model, calib, PlannerConfig(overall_ratio=0.2)), 1)
            ws, = workspaces[-1:]
            assert len(ws.blocks) == times
            held[times] = sum(b.nbytes for b in ws.buffers())
            peaks[times] = peak
        block = 8 * width * per_block  # also the model's output per block of rows
        assert abs(held[8] - held[1]) <= block, held
        assert peaks[8] < peaks[1] + block // 4, peaks
        assert peaks[8] < 5 * block, peaks

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_plan_holds_less_than_its_model_output(self, monkeypatch, beta, cache):
        # Layers of two matrices, silu among them, so the scratch pair and the
        # residual stage are held too. plan's peak, the calibration pass or
        # the read of a warm run's calibrated state included, does not grow
        # from 1x to 8x the rows, and at 8x it is below the bytes of the
        # model's output alone: the output is never held, only spilled, or
        # found in the cache, and read back block by block.
        per_block = 1024
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", 8 * self.WIDTH * per_block)
        rng = np.random.default_rng(41)
        model = with_silu(make_multi_entry_mlp(rng, 6, self.WIDTH, 2))
        peaks = {}
        for times in (1, 8):
            calib = make_calib(rng, times * per_block, self.WIDTH)
            if cache == "warm":
                plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=beta))
            peaks[times] = peak_arrays(
                lambda: plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=beta)), 1)
        block = 8 * self.WIDTH * per_block
        assert peaks[8] < peaks[1] + block // 4, peaks
        assert peaks[8] < 8 * block, peaks

    def test_the_calibration_pass_holds_one_layers_gram_matrices(self, tmp_path, monkeypatch):
        # Layers alternately widen and narrow the rows, so the narrowing
        # layers' Gram matrices are most of what a pass holding the whole
        # tail's would hold. The pass whitens each layer's matrices before the
        # next layer runs, so at two tail depths a plan that cannot use the
        # cache peaks below the U and sigma the calibrated state keeps, plus
        # the largest layer's Gram matrix and the copies whiten makes of it
        # (the ridge and the Cholesky factor), plus a fixed number of blocks.
        width, wide, rows = 16, 128, 256
        block = 8 * wide * rows // 8  # the widest output runs as eight blocks
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", block)
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))  # so every plan calibrates
        rng = np.random.default_rng(43)
        calib = make_calib(rng, rows, width)
        cfg = PlannerConfig(overall_ratio=0.2)
        plan(make_rectangular(rng, 4, width, wide), calib, cfg)  # loads what plan imports late
        for n_layers in (6, 16):
            model = make_rectangular(rng, n_layers, width, wide)
            chosen = []
            peak = peak_arrays(lambda: chosen.append(plan(model, calib, cfg)), 1)
            table = chosen[0].candidate_table
            assert all(row.status == "ok" for row in table)
            tail = [layer.entries[0]
                    for layer in model.layers[n_layers - max(row.k for row in table):]]
            kept = sum(8 * (e.rows + 1) * min(e.rows, e.cols) for e in tail)
            gram_bytes = max(8 * e.cols ** 2 for e in tail)
            assert len(tail) > 4
            assert peak < kept + 4 * gram_bytes + 6 * block, (n_layers, peak)

    def test_the_calibration_pass_keeps_two_spills_at_most(self, monkeypatch):
        # Each layer writes its output to a spill of its own, which the next
        # layer reads back and drops once its last block is through: a cold
        # plan over three blocks has at most two spills open at once, and
        # closes every descriptor it opened.
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", block_bytes(self.ROWS, self.WIDTH, 3))
        rng = np.random.default_rng(44)
        model = make_multi_entry_mlp(rng, 6, self.WIDTH, 2)
        calib = make_calib(rng, self.ROWS, self.WIDTH)
        spills, open_at_once = [], []
        real = resvd.calibration.RowFile.spill

        def spill(what):
            made = real(what)
            spills.append(weakref.ref(made))
            open_at_once.append(sum(ref() is not None for ref in spills))
            return made

        monkeypatch.setattr(resvd.calibration.RowFile, "spill", staticmethod(spill))
        gc.collect()  # earlier tests' cycles may still hold descriptors
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
        plan(model, calib, PlannerConfig(overall_ratio=0.3))
        gc.collect()
        assert len(spills) == model.n_layers
        assert max(open_at_once) == 2
        assert all(ref() is None for ref in spills)
        assert fds == (len(os.listdir("/proc/self/fd")) if fds else 0)


class TestCompressModel:
    def test_prefix_untouched_and_tail_factored(self):
        rng = np.random.default_rng(31)
        model = make_mlp(rng, 6, 16)
        calib = make_calib(rng, 48, 16)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3))
        out = compress_model(model, calib, chosen)
        split = model.n_layers - chosen.k
        for i in range(split):
            np.testing.assert_array_equal(
                out.layers[i].entries[0].dense, model.layers[i].entries[0].dense
            )
        for i in range(split, model.n_layers):
            assert out.layers[i].entries[0].is_factored

    def test_factors_each_tail_matrix_once(self, tmp_path, monkeypatch):
        # With a cache that holds no state for the pair, each tail matrix is
        # factored once; the state that run left then serves the next one,
        # which factors none.
        rng = np.random.default_rng(36)
        model = make_multi_entry_mlp(rng, 6, 14, 2)
        calib = make_calib(rng, 40, 14)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3))
        factored = []

        def svd(w, name="matrix"):
            if name.endswith(" (whitened)"):
                factored.append(name.removesuffix(" (whitened)"))
            return real_svd(w, name=name)

        real_svd = resvd.compensation.svd
        monkeypatch.setattr(resvd.compensation, "svd", svd)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        cold = compress_model(model, calib, chosen)
        assert sorted(factored) == [f"layer{i}/w{j}" for i in range(6 - chosen.k, 6)
                                    for j in range(2)]
        factored.clear()
        assert model_bytes(compress_model(model, calib, chosen)) == model_bytes(cold)
        assert factored == []

    def test_parameter_ratio_within_flooring_slack(self):
        rng = np.random.default_rng(32)
        m = n = 64
        model = make_mlp(rng, 8, m)
        calib = make_calib(rng, 96, m)
        for ratio in (0.2, 0.5):
            chosen = plan(model, calib, PlannerConfig(overall_ratio=ratio))
            out = compress_model(model, calib, chosen)
            achieved = 1.0 - parameter_count(out) / parameter_count(model)
            # Rank flooring can only shrink the kept factors, so the achieved
            # reduction lands in [R_o, R_o + (m+n)/(m*n)].
            slack = (m + n) / (m * n)
            assert ratio - 1e-12 <= achieved <= ratio + slack, (ratio, achieved)

    def test_layer_count_mismatch_rejected(self):
        rng = np.random.default_rng(33)
        model = make_mlp(rng, 5, 12)
        calib = make_calib(rng, 40, 12)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3))
        other = make_mlp(rng, 4, 12)
        with pytest.raises(CompressionError):
            compress_model(other, calib, chosen)

    def test_beta_override_changes_ranks_not_total(self):
        rng = np.random.default_rng(34)
        model = make_mlp(rng, 4, 24)
        calib = make_calib(rng, 48, 24)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.4, beta=0.05))
        with_comp = compress_model(model, calib, chosen)
        without = compress_model(model, calib, dataclasses.replace(chosen, beta=0.0))
        assert parameter_count(with_comp) == parameter_count(without)

    def test_plan_then_compress_is_deterministic(self):
        rng_a = np.random.default_rng(35)
        rng_b = np.random.default_rng(35)
        model_a = make_mlp(rng_a, 4, 16)
        model_b = make_mlp(rng_b, 4, 16)
        calib_a = make_calib(np.random.default_rng(1), 32, 16)
        calib_b = make_calib(np.random.default_rng(1), 32, 16)
        cfg = PlannerConfig(overall_ratio=0.3)
        out_a = compress_model(model_a, calib_a, plan(model_a, calib_a, cfg))
        out_b = compress_model(model_b, calib_b, plan(model_b, calib_b, cfg))
        for la, lb in zip(out_a.layers, out_b.layers):
            ea, eb = la.entries[0], lb.entries[0]
            if ea.is_factored:
                assert ea.factors.u_hat.tobytes() == eb.factors.u_hat.tobytes()
                assert ea.factors.v_hat.tobytes() == eb.factors.v_hat.tobytes()
            else:
                assert ea.dense.tobytes() == eb.dense.tobytes()


class TestPlannerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(overall_ratio=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(overall_ratio=1.0)
        with pytest.raises(ValueError):
            PlannerConfig(overall_ratio=0.5, step=0)
        with pytest.raises(ValueError):
            PlannerConfig(overall_ratio=0.5, beta=1.0)

    def test_plan_echoes_config(self):
        rng = np.random.default_rng(41)
        model = make_mlp(rng, 4, 12)
        calib = make_calib(rng, 36, 12)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=0.02, seed=9))
        assert isinstance(chosen, CompressionPlan)
        assert chosen.n_layers == 4
        assert chosen.overall_ratio == 0.3
        assert chosen.beta == 0.02
        assert chosen.seed == 9
