"""Oracle tests: the independent checkers must pass on their own terms and
must agree with the production compressor when fed the same inputs."""

from __future__ import annotations

import json

import numpy as np
import pytest

import resvd.oracle as oracle_mod
from resvd.compensation import compress_matrix, whitened_weight
from resvd.linalg import frobenius_error, rank_budget
from resvd.oracle import (
    MacCheckResult,
    OracleReport,
    check_delta_decomposition,
    check_mac_formula,
    check_theorem3,
    delta_suite,
    mac_suite,
    run_all,
)


class TestTheorem3Suite:
    def test_default_run_passes(self):
        report = check_theorem3(trials=100, seed=0)
        assert report.passed
        assert report.trials == 100
        assert report.max_violation <= 1e-9
        assert report.failures == ()

    def test_other_seeds_pass(self):
        for seed in (1, 7, 42):
            assert check_theorem3(trials=30, seed=seed).passed

    def test_narrow_dims_seed7(self):
        report = check_theorem3(trials=100, seed=7, dims=(8, 32))
        assert report.passed
        assert report.failures == ()

    def test_agrees_with_production_compressor(self):
        # Same (W, S, ratio): the oracle's compensated error and the
        # pipeline's must coincide to rounding.
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 24
            w = rng.standard_normal((16, n))
            x = rng.standard_normal((4 * n, n))
            gram = x.T @ x + 0.5 * np.eye(n)
            s = np.linalg.cholesky(gram)
            pair = compress_matrix(whitened_weight(w, s), 0.3, 0.05)
            pipeline_err = frobenius_error(w, pair.product())

            budget = rank_budget(16, n, 0.3, 0.05)
            u, sigma, vt = np.linalg.svd(w @ s, full_matrices=False)
            stage1 = (u[:, : budget.r_i] * sigma[: budget.r_i]) @ vt[: budget.r_i] @ np.linalg.inv(s)
            ru, rsig, rvt = np.linalg.svd(w - stage1, full_matrices=False)
            oracle_est = stage1 + (ru[:, : budget.r_r] * rsig[: budget.r_r]) @ rvt[: budget.r_r]
            oracle_err = np.linalg.norm(w - oracle_est)
            assert pipeline_err == pytest.approx(oracle_err, abs=1e-9)

    def test_catches_a_broken_beta_zero_budget(self, monkeypatch):
        # A beta = 0 split that still spends rank on the residual stage is no
        # longer plain truncation; the degenerate leg must report the drift.
        real = oracle_mod._budget

        def leaky(m, n, layer_ratio, beta):
            r, r_i, r_r = real(m, n, layer_ratio, beta)
            return (r, r - 1, 1) if beta == 0.0 else (r, r_i, r_r)

        monkeypatch.setattr(oracle_mod, "_budget", leaky)
        report = check_theorem3(trials=20, seed=0)
        assert not report.passed
        assert report.max_violation > report.tolerance
        assert any("beta=0 split drifted" in f for f in report.failures)

    @pytest.mark.parametrize("fails", [1, 2])
    def test_an_svd_that_fails_is_retried_on_the_transpose_not_skipped(self, monkeypatch,
                                                                        fails):
        # One failed call is retried on the transpose and every trial still
        # runs; when the retry fails too, the error propagates.
        real, shapes = np.linalg.svd, []

        def svd(a, *args, **kwargs):
            shapes.append(a.shape)
            if len(shapes) <= fails:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        if fails == 2:
            with pytest.raises(np.linalg.LinAlgError):
                check_theorem3(trials=5)
        else:
            report = check_theorem3(trials=5)
            assert (report.trials, report.passed) == (5, True)
        assert shapes[1] == shapes[0][::-1]

    def test_report_is_json_serializable(self):
        report = check_theorem3(trials=5, seed=3)
        text = json.dumps(report.as_dict())
        back = json.loads(text)
        assert back["suite"] == "residual-compensation-superiority"
        assert back["passed"] is True


class TestDeltaDecomposition:
    def test_full_rank_head_means_zero_remainder(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((8, 6))
        s = np.eye(6)
        report = check_delta_decomposition(w, s, r_i=4, r=4)
        assert report.passed
        assert report.max_violation == 0.0
        assert report.trials == 1

    def test_diagonal_case_has_diagonal_tail(self):
        # W diagonal with S = I: the remainder is exactly the dropped
        # diagonal block, nothing else.
        w = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        s = np.eye(5)
        s_inv = np.eye(5)
        u, sigma, vt = np.linalg.svd(w @ s, full_matrices=False)
        r, r_i = 4, 2
        head = (u[:, :r_i] * sigma[:r_i]) @ vt[:r_i] @ s_inv
        full = (u[:, :r] * sigma[:r]) @ vt[:r] @ s_inv
        delta = full - head
        expected = np.diag([0.0, 0.0, 3.0, 2.0, 0.0])
        np.testing.assert_allclose(delta, expected, atol=1e-12)
        assert check_delta_decomposition(w, s, r_i, r).max_violation <= 1e-12

    def test_random_cases_small_deviation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = int(rng.integers(4, 20)), int(rng.integers(4, 20))
            w = rng.standard_normal((m, n))
            x = rng.standard_normal((3 * n, n))
            s = np.linalg.cholesky(x.T @ x + 0.5 * np.eye(n))
            r = int(rng.integers(2, min(m, n) + 1))
            r_i = int(rng.integers(1, r + 1))
            report = check_delta_decomposition(w, s, r_i, r)
            assert report.passed
            assert report.max_violation <= 1e-9

    def test_mismatch_yields_failing_report(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((10, 8))
        x = rng.standard_normal((24, 8))
        s = np.linalg.cholesky(x.T @ x + 0.5 * np.eye(8))
        report = check_delta_decomposition(w, s, r_i=2, r=5, tolerance=0.0)
        assert not report.passed
        assert len(report.failures) == 1
        assert "deviation" in report.failures[0]

    def test_invalid_ranks_rejected(self):
        w = np.eye(4)
        s = np.eye(4)
        with pytest.raises(ValueError):
            check_delta_decomposition(w, s, r_i=0, r=2)
        with pytest.raises(ValueError):
            check_delta_decomposition(w, s, r_i=3, r=2)
        with pytest.raises(ValueError):
            check_delta_decomposition(w, s, r_i=1, r=5)

    def test_suite_passes(self):
        report = delta_suite(trials=100, seed=0)
        assert report.passed
        assert report.trials == 100
        assert report.max_violation <= 1e-9


class TestMacFormula:
    def test_zero_reduction_keeps_everything(self):
        res = check_mac_formula((64, 8), overall_ratio=0.0, k=8)
        assert res.param_ratio == 1.0
        assert res.mac_ratio == 1.0
        assert res.passed

    def test_half_reduction_uniform(self):
        res = check_mac_formula((64, 8), overall_ratio=0.5, k=8)
        assert 0.49 <= res.param_ratio <= 0.50
        assert 0.49 <= res.mac_ratio <= 0.50
        assert res.passed

    def test_quarter_reduction_tail_half(self):
        res = check_mac_formula((64, 8), overall_ratio=0.25, k=4)
        assert 0.74 <= res.param_ratio <= 0.75
        assert 0.74 <= res.mac_ratio <= 0.75
        assert res.passed

    def test_param_and_mac_ratios_coincide_for_square(self):
        # batch size cancels from the MAC ratio, and for square matrices
        # the factored MAC count tracks the factored parameter count.
        for batch in (1, 7, 256):
            res = check_mac_formula((32, 6), overall_ratio=0.3, k=3, batch=batch)
            assert res.param_ratio == pytest.approx(res.mac_ratio, abs=1e-15)

    def test_infeasible_k_raises(self):
        with pytest.raises(ValueError):
            check_mac_formula((64, 8), overall_ratio=0.5, k=4)  # layer ratio hits 1.0
        with pytest.raises(ValueError):
            check_mac_formula((64, 8), overall_ratio=0.5, k=9)
        with pytest.raises(ValueError):
            check_mac_formula((4, 8), overall_ratio=0.9, k=8)  # rank floors to zero

    def test_result_shape(self):
        res = check_mac_formula((64, 8), overall_ratio=0.2, k=8)
        assert isinstance(res, MacCheckResult)
        assert res.lower == pytest.approx(1 - 0.2 - 128 / 4096)
        assert res.upper == pytest.approx(0.8)

    def test_suite_passes(self):
        report = mac_suite(trials=100, seed=0)
        assert report.passed
        assert report.trials == 100
        assert report.max_violation <= 1e-12


class TestRunAll:
    def test_three_suites_all_green(self):
        reports = run_all(trials=20, seed=0)
        assert len(reports) == 3
        assert all(isinstance(r, OracleReport) for r in reports)
        assert len({r.suite for r in reports}) == 3
        assert all(r.passed for r in reports)

    def test_deterministic_for_seed(self):
        a = run_all(trials=15, seed=4)
        b = run_all(trials=15, seed=4)
        assert a == b
