"""Planner tests: candidate enumeration against hand-derived sets, argmin
selection against a brute-force oracle, and budget bookkeeping."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import resvd.planner as planner_mod
from resvd.calibration import CalibrationSet, capture_activations, whitening_contexts
from resvd.errors import CompressionError, InfeasiblePlanError
from resvd.model import Layer, MatrixEntry, SequentialModel, layerwise_error, parameter_count
from resvd.planner import (
    CompressionPlan,
    PlannerConfig,
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
                entries=(MatrixEntry(name="w", rows=width, cols=width, dense=w),),
                activation=act,
            )
        )
    return SequentialModel(layers=tuple(layers), input_dim=width)


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
                entries=tuple(MatrixEntry(name=f"w{j}", rows=width, cols=width, dense=w)
                              for j, w in enumerate(ws)),
                activation="identity" if i == n_layers - 1 else "relu",
            )
        )
    return SequentialModel(layers=tuple(layers), input_dim=width)


def model_bytes(model):
    return [
        [a.tobytes() for a in ((e.factors.u_hat, e.factors.v_hat) if e.is_factored else (e.dense,))]
        for layer in model.layers for e in layer.entries
    ]


def make_calib(rng, n, dim, seed=0):
    return CalibrationSet(samples=rng.standard_normal((n, dim)), seed=seed)


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
        contexts = whitening_contexts(capture_activations(model, calib))
        out = compress_tail_layers(model, contexts, k=2, layer_ratio=0.4, beta=0.05)
        for i in range(3):
            assert out.layers[i] is model.layers[i]
        for i in range(3, 5):
            assert out.layers[i].entries[0].is_factored

    def test_whole_model_when_k_equals_n(self):
        rng = np.random.default_rng(12)
        model = make_mlp(rng, 3, 10)
        calib = make_calib(rng, 30, 10)
        contexts = whitening_contexts(capture_activations(model, calib))
        out = compress_tail_layers(model, contexts, k=3, layer_ratio=0.3, beta=0.05)
        assert all(layer.entries[0].is_factored for layer in out.layers)

    def test_rejects_factored_input(self):
        rng = np.random.default_rng(13)
        model = make_mlp(rng, 3, 10)
        calib = make_calib(rng, 30, 10)
        contexts = whitening_contexts(capture_activations(model, calib))
        once = compress_tail_layers(model, contexts, k=3, layer_ratio=0.3, beta=0.05)
        with pytest.raises(CompressionError):
            compress_tail_layers(once, contexts, k=1, layer_ratio=0.3, beta=0.05)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(14)
        model = make_mlp(rng, 3, 10)
        calib = make_calib(rng, 30, 10)
        contexts = whitening_contexts(capture_activations(model, calib))
        with pytest.raises(ValueError):
            compress_tail_layers(model, contexts, k=0, layer_ratio=0.3, beta=0.05)
        with pytest.raises(ValueError):
            compress_tail_layers(model, contexts, k=4, layer_ratio=0.3, beta=0.05)


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

            contexts = whitening_contexts(capture_activations(model, calib))
            best_k, best_err = None, math.inf
            for k, ratio in enumerate_candidates(6, cfg, layer_shapes=[[(16, 16)]] * 6):
                trial = compress_tail_layers(model, contexts, k, ratio, cfg.beta)
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
        contexts = whitening_contexts(capture_activations(model, calib))
        assert all(row.status == "ok" for row in chosen.candidate_table)
        for row in chosen.candidate_table:
            trial = compress_tail_layers(model, contexts, row.k, row.layer_ratio, cfg.beta)
            assert row.final_error == layerwise_error(model, trial, calib)[-1], row.k
        assert chosen.layer_errors == layerwise_error(model, chosen.compressed, calib)
        rebuilt = compress_model(model, calib, chosen)
        assert model_bytes(chosen.compressed) == model_bytes(rebuilt)

    def test_zero_output_layer_scores_nan_like_full_forward(self, monkeypatch):
        # A relu layer whose output is all zero has an undefined (nan) error,
        # and so does every layer after it. Its zero output cannot be whitened
        # at the default ridge, so the contexts here take an explicit one.
        rng = np.random.default_rng(28)
        model = make_multi_entry_mlp(rng, 5, 12, 2, dead_layer=1)
        calib = make_calib(rng, 40, 12)
        monkeypatch.setattr(planner_mod, "whitening_contexts",
                            lambda acts: whitening_contexts(acts, ridge=1e-3))
        state = planner_mod.calibrate(model, calib)
        for k in (2, 3, 4):
            trial = compress_tail_layers(model, state.contexts, k, 5 * 0.3 / k, 0.05)
            want = layerwise_error(model, trial, calib)
            got = state.layer_errors(trial, k)
            assert got[0] == want[0] == 0.0
            assert all(math.isnan(v) for v in got[1:] + want[1:]), k
        with pytest.raises(InfeasiblePlanError):
            plan(model, calib, PlannerConfig(overall_ratio=0.3))

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
        real = planner_mod.compress_tail_layers

        def flaky(model, contexts, k, layer_ratio, beta):
            if k == 2:
                raise CompressionError("injected failure")
            return real(model, contexts, k, layer_ratio, beta)

        monkeypatch.setattr(planner_mod, "compress_tail_layers", flaky)
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

        def broken(model, contexts, k, layer_ratio, beta):
            raise CompressionError("nope")

        monkeypatch.setattr(planner_mod, "compress_tail_layers", broken)
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
