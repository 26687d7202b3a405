"""Planner tests: candidate enumeration against hand-derived sets, argmin
selection against a brute-force oracle, and budget bookkeeping."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import resvd.compensation
import resvd.model as model_mod
import resvd.planner as planner_mod
from resvd.calibration import CalibrationSet, whiten
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
    """Every layer's output, each activation allocating a fresh array."""
    out, h = [], x
    for layer in model.layers:
        for e in layer.entries:
            h = e.apply(h)
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
        # full-model layerwise_error bit for bit, and so must the plan's
        # kept trial and its per-layer errors.
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
        assert chosen.layer_errors == layerwise_error(model, chosen.compressed, calib)
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
        assert chosen.layer_errors == two_pass_layerwise_error(model, chosen.compressed,
                                                               calib.samples)

    def test_plan_scores_each_candidate_once_and_walks_only_the_winner(self, monkeypatch):
        # One relative error per candidate, always its final layer's, then
        # the winner's k per-layer errors for errors.csv, and nothing else.
        rng = np.random.default_rng(32)
        model = make_multi_entry_mlp(rng, 6, 14, 2)
        calib = make_calib(rng, 40, 14)
        scored = []

        def relative_error(y, reference):
            scored.append(reference[1])
            return real(y, reference)

        real = model_mod._relative_error
        monkeypatch.setattr(model_mod, "_relative_error", relative_error)
        chosen = plan(model, calib, PlannerConfig(overall_ratio=0.3))
        ok = [row for row in chosen.candidate_table if row.status == "ok"]
        assert len(ok) == len(chosen.candidate_table) > 1
        assert len(scored) == len(ok) + chosen.k
        norms = calibrate(model, calib, 6).reference_norms
        assert scored[: len(ok)] == [norms[-1]] * len(ok)
        assert scored[len(ok) :] == list(norms[-chosen.k :])

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
        assert chosen.layer_errors == layerwise_error(model, chosen.compressed, calib)

    def test_plan_writes_neither_calibration_nor_captured_inputs(self, monkeypatch):
        # Activations run in place on fresh matmul outputs only, and scoring
        # subtracts in place into each trial output alone: planning leaves
        # the calibration rows and the held reference output as they were,
        # and that output is the model's own.
        rng = np.random.default_rng(31)
        model = with_silu(make_multi_entry_mlp(rng, 6, 14, 2))
        calib = make_calib(rng, 40, 14)
        samples = calib.samples.copy()
        states = []

        def calibrate(*args):
            state = real_calibrate(*args)
            states.append((state, state.output.copy()))
            return state

        real_calibrate = planner_mod.calibrate
        monkeypatch.setattr(planner_mod, "calibrate", calibrate)
        plan(model, calib, PlannerConfig(overall_ratio=0.3))
        (state, before_scoring), = states
        assert np.array_equal(calib.samples, samples)
        assert np.array_equal(state.output, before_scoring)
        assert np.array_equal(state.output, allocating_forward(model, samples)[-1])

    def test_a_second_plan_leaves_the_first_as_it_was(self, monkeypatch):
        # Each plan runs in a workspace of its own, and nothing a plan
        # returns or keeps lives in one: a second plan in the same process
        # leaves the first one's trial, errors and table as they were, and
        # the calibrated output shares no memory with any workspace buffer.
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
        kept = (model_bytes(first.compressed), first.layer_errors, first.candidate_table)
        output = states[0].output.copy()
        second = plan(model, make_calib(rng, 40, 14), cfg)
        assert second.layer_errors != first.layer_errors
        assert (model_bytes(first.compressed), first.layer_errors, first.candidate_table) == kept
        assert np.array_equal(states[0].output, output)

        assert len(workspaces) == 2
        buffers = [b for ws in workspaces for b in ws.buffers()]
        assert len(buffers) == 2 * 6  # three outputs, the scratch pair and the rank scratch
        kept_arrays = [a for chosen in (first, second) for layer in chosen.compressed.layers
                       for e in layer.entries if e.is_factored
                       for a in (e.factors.u_hat, e.factors.v_hat)]
        for a in [state.output for state in states] + kept_arrays:
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
        for layer in model.layers:
            for e in layer.entries:
                key = f"{layer.name}/{e.name}"
                whitened[key] = whitened_weight(e.dense, whiten(h, ridge=1e-3), key)
                h = e.apply(h)
            h = model_mod.apply_activation(layer.activation, h)
        state = CalibratedModel(model=model, whitened=whitened, reference_norms=(),
                                output=h)
        for k in (2, 3, 4):
            trial = compress_tail_layers(state, k, 5 * 0.3 / k, 0.05)
            errors = layerwise_error(model, trial, calib)
            assert errors[0] == 0.0
            assert all(math.isnan(v) for v in errors[1:]), k

    def test_calibrated_state_holds_two_arrays_per_tail_matrix(self):
        # Each whitened record keeps U and P = V^T S^{-1} of svd(W S) besides
        # the weight the model already holds. On wide square matrices and few
        # rows the activations are small, so the state calibrate returns
        # holds two n x n arrays per tail matrix and little else.
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
        assert 2 * k < held < 2 * k + 0.3, held

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

    def test_ties_and_the_reraised_failure_go_to_the_smallest_k(self, monkeypatch):
        # Candidates are scored largest k first; the table, the tie-break
        # and the failure re-raised when every candidate fails still follow
        # ascending k.
        rng = np.random.default_rng(23)
        model = make_mlp(rng, 6, 12)
        calib = make_calib(rng, 36, 12)
        cfg = PlannerConfig(overall_ratio=0.3)
        ks = [k for k, _ in enumerate_candidates(6, cfg, layer_shapes=[[(12, 12)]] * 6)]
        real = planner_mod._scored
        monkeypatch.setattr(planner_mod, "_scored", lambda *args: (0.5, real(*args)[1]))
        chosen = plan(model, calib, cfg)
        assert [row.k for row in chosen.candidate_table] == ks
        assert chosen.k == ks[0]

        def failing(state, k, *args):
            raise NumericalError(f"k={k} failed")

        monkeypatch.setattr(planner_mod, "_scored", failing)
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

    def test_factors_each_tail_matrix_once(self, monkeypatch):
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
        compress_model(model, calib, chosen)
        assert sorted(factored) == [f"layer{i}/w{j}" for i in range(6 - chosen.k, 6)
                                    for j in range(2)]

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
