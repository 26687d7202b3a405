"""Acceptance gate.

Nine criteria, one test each, every test printing a single PASS line once
its assertions hold. Tolerances are fixed here and nowhere looser than in
the unit suites.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from resvd.calibration import CalibrationSet
from resvd.cli import main
from resvd.compensation import compress_matrix, direct_truncate_matrix, whitened_weight
from resvd.demo import demo_calibration, demo_model
from resvd.linalg import frobenius_error, rank_budget, svd, truncate
from resvd.model import (
    Layer,
    MatrixEntry,
    SequentialModel,
    layerwise_error,
    mac_count,
    parameter_count,
)
from resvd.oracle import check_theorem3
from resvd.planner import (
    PlannerConfig,
    calibrate,
    compress_model,
    compress_tail_layers,
    enumerate_candidates,
    plan,
)


@pytest.fixture(scope="module")
def demo():
    model = demo_model()  # N=8, width 64, seed 7
    calib = demo_calibration()
    return model, calib


def random_factor(rng, n: int) -> np.ndarray:
    x = rng.standard_normal((4 * n, n))
    return np.linalg.cholesky(x.T @ x + 0.5 * np.eye(n))


def test_criterion_1_theorem3_suite():
    started = time.time()
    report = check_theorem3(trials=100, seed=0, dims=(8, 64),
                            ratios=(0.2, 0.3, 0.5), beta=0.05, tolerance=1e-9)
    elapsed = time.time() - started
    assert report.trials >= 100
    assert report.passed, report.failures
    assert report.max_violation <= 1e-9
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: compensated error never beat by direct truncation "
          f"({report.trials} trials, max violation {report.max_violation:.3g}, "
          f"{elapsed:.2f}s)")


def test_criterion_2_truncation_optimality():
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(100):
        m = int(rng.integers(6, 33))
        n = int(rng.integers(6, 33))
        w = rng.standard_normal((m, n))
        r = int(rng.integers(1, min(m, n)))
        best = frobenius_error(w, truncate(svd(w), r).product())
        factors = svd(w)
        for j in range(20):
            if j % 2 == 0:
                a = rng.standard_normal((m, r)) * np.sqrt(factors.sigma[0] / m)
                b = rng.standard_normal((r, n))
            else:
                # jiggled copies of the optimum: rank stays <= r
                opt = truncate(factors, r)
                a = opt.u_hat + 1e-3 * rng.standard_normal((m, r))
                b = opt.v_hat + 1e-3 * rng.standard_normal((r, n))
            if best > frobenius_error(w, a @ b) + 1e-9:
                violations += 1
    assert violations == 0
    print("\nPASS criterion 2: rank-r truncation beat all 2000 random rank-r "
          "competitors (100 trials x 20)")


def test_criterion_3_beta_degeneration():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(8, 49))
        n = int(rng.integers(8, 49))
        w = rng.standard_normal((m, n))
        s = np.eye(n) if i % 5 == 0 else random_factor(rng, n)
        weight = whitened_weight(w, s)
        two_stage = compress_matrix(weight, 0.3, 0.0)
        r = rank_budget(m, n, 0.3, 0.0).r
        direct = direct_truncate_matrix(weight, r)
        worst = max(worst, float(np.max(np.abs(two_stage.product() - direct.product()))))
    assert worst <= 1e-10
    print(f"\nPASS criterion 3: beta=0 equals direct truncation elementwise "
          f"(50 matrices, worst deviation {worst:.3g})")


def test_criterion_4_budget_arithmetic(demo):
    cands = enumerate_candidates(32, PlannerConfig(overall_ratio=0.2, step=1))
    assert [k for k, _ in cands] == list(range(7, 32))

    model, calib = demo
    checked = 0
    for ratio in (0.2, 0.25, 0.3, 0.5):
        chosen = plan(model, calib, PlannerConfig(overall_ratio=ratio, seed=7))
        assert chosen.k * chosen.layer_ratio_exact == Fraction(ratio) * chosen.n_layers
        checked += 1
    assert checked == 4
    print("\nPASS criterion 4: candidate set {7..31} for (N=32, R_o=0.2, s=1); "
          "k*R_l == N*R_o exactly for every plan")


def test_criterion_5_parameter_and_mac_ratios(demo):
    started = time.time()
    model, calib = demo
    m = n = 64
    slack = (m + n) / (m * n)
    batch = calib.num_samples
    for overall in (0.2, 0.25, 0.5):
        chosen = plan(model, calib, PlannerConfig(overall_ratio=overall, seed=7))
        compressed = compress_model(model, calib, chosen)
        p_ratio = parameter_count(compressed) / parameter_count(model)
        m_ratio = mac_count(compressed, batch) / mac_count(model, batch)
        lo, hi = 1.0 - overall - slack, 1.0 - overall
        assert lo <= p_ratio <= hi, (overall, p_ratio)
        assert lo <= m_ratio <= hi, (overall, m_ratio)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 5: parameter and MAC ratios inside the flooring "
          f"band for R_o in {{0.2, 0.25, 0.5}} ({elapsed:.2f}s)")


def test_criterion_6_planner_matches_brute_force():
    width = 16
    for seed in range(10):
        rng = np.random.default_rng(seed)
        layers = []
        n_layers = 6
        for i in range(n_layers):
            w = rng.standard_normal((width, width)) / np.sqrt(width)
            layers.append(Layer(
                name=f"layer{i}",
                entries=(MatrixEntry(name="w", dense=w),),
                activation="identity" if i == n_layers - 1 else "relu",
            ))
        model = SequentialModel(layers=tuple(layers))
        calib = CalibrationSet(samples=rng.standard_normal((48, width)))
        cfg = PlannerConfig(overall_ratio=0.3, seed=seed)

        chosen = plan(model, calib, cfg)

        state = calibrate(model, calib, n_layers)
        best_k, best_err = None, math.inf
        shapes = [[(width, width)]] * n_layers
        for k, ratio in enumerate_candidates(n_layers, cfg, layer_shapes=shapes):
            trial = compress_tail_layers(state, k, ratio, cfg.beta)
            err = layerwise_error(model, trial, calib)[-1]
            if err < best_err:
                best_k, best_err = k, err
        assert chosen.k == best_k, f"seed {seed}: planner {chosen.k}, exhaustive {best_k}"
    print("\nPASS criterion 6: planned k equals exhaustive argmin on 10 seeded models")


def test_criterion_7_prefix_layers_error_free(demo):
    model, calib = demo
    for overall, seed in ((0.2, 7), (0.3, 7), (0.5, 11)):
        chosen = plan(model, calib, PlannerConfig(overall_ratio=overall, seed=seed))
        compressed = compress_model(model, calib, chosen)
        errors = layerwise_error(model, compressed, calib)
        prefix = chosen.n_layers - chosen.k
        for idx, err in enumerate(errors[:prefix], 1):
            assert err <= 1e-12, (overall, idx, err)
    print("\nPASS criterion 7: untouched prefix layers report error <= 1e-12 "
          "in every analyze report")


def test_criterion_8_planned_tail_beats_uniform(demo):
    model, calib = demo
    chosen = plan(model, calib, PlannerConfig(overall_ratio=0.2, seed=7))
    state = calibrate(model, calib, model.n_layers)
    uniform = compress_tail_layers(state, k=model.n_layers,
                                   layer_ratio=0.2, beta=0.05)
    uniform_err = layerwise_error(model, uniform, calib)[-1]
    assert chosen.chosen_error < uniform_err, (chosen.chosen_error, uniform_err)
    print(f"\nPASS criterion 8: planned k={chosen.k} error "
          f"{chosen.chosen_error:.4f} < uniform all-layer {uniform_err:.4f} "
          f"on demo seed 7")


def test_criterion_9_compress_is_deterministic(tmp_path):
    demo_dir = tmp_path / "demo"
    assert main(["gen-demo", "--out", str(demo_dir), "--layers", "8",
                 "--width", "64", "--samples", "128", "--seed", "7"]) == 0
    out = tmp_path / "out"
    args = ["compress", "--model", str(demo_dir), "--calib",
            str(demo_dir / "calib.bin"), "--ratio", "0.2", "--seed", "7",
            "--out", str(out)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second
    assert len(first) >= 11  # manifest + 8 tensors + plan.json + errors.csv
    print("\nPASS criterion 9: repeated compress runs are byte-identical "
          f"({len(first)} files compared)")
