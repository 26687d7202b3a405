"""Residual compensation: degeneration, exactness, and the superiority inequality."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resvd.compensation as compensation_mod
import resvd.planner as planner_mod
from resvd.calibration import ScalingContext, whiten
from resvd.compensation import compress_matrix, direct_truncate_matrix, whitened_weight
from resvd.demo import demo_calibration, demo_model
from resvd.errors import DimensionError, InfeasibleBudgetError, NumericalError
from resvd.linalg import frobenius_error, rank_budget, svd, truncate
from resvd.planner import PlannerConfig, plan


def identity_ctx(n):
    return ScalingContext(s=np.eye(n), s_inv=np.eye(n), ridge=0.0)


def random_ctx(rng, n):
    # Cholesky factor of a well-conditioned random SPD matrix.
    a = rng.standard_normal((n + 4, n))
    return whiten(a, ridge=0.1 * n)


def test_beta_zero_degenerates_to_direct_truncation():
    rng = np.random.default_rng(1)
    for seed in range(50):
        trial = np.random.default_rng(seed)
        n = int(trial.integers(6, 20))
        m = int(trial.integers(6, 20))
        w = trial.standard_normal((m, n))
        weight = whitened_weight(w, random_ctx(trial, n))
        erc = compress_matrix(weight, 0.5, 0.0)
        direct = direct_truncate_matrix(weight, rank_budget(m, n, 0.5, 0.0).r)
        # bit-equal under the fixed sign convention
        assert erc.u_hat.tobytes() == direct.u_hat.tobytes()
        assert erc.v_hat.tobytes() == direct.v_hat.tobytes()
        np.testing.assert_allclose(erc.product(), direct.product(), atol=1e-10)
    del rng


def test_full_rank_budget_reproduces_weight():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((8, 8))
    ctx = random_ctx(rng, 8)
    # layer_ratio 0 gives r = floor(alpha) = 4 for square 8x8; to reach full
    # rank use direct truncation at r = 8 explicitly.
    pair = direct_truncate_matrix(whitened_weight(w, ctx), 8)
    assert frobenius_error(pair.product(), w) <= 1e-8 * np.linalg.norm(w)


def test_compensation_beats_direct_truncation_on_seeded_case():
    rng = np.random.default_rng(2024)
    w = rng.standard_normal((16, 16))
    weight = whitened_weight(w, random_ctx(rng, 16))
    erc_err = frobenius_error(compress_matrix(weight, 0.5, 0.05).product(), w)
    r = rank_budget(16, 16, 0.5, 0.05).r
    direct_err = frobenius_error(direct_truncate_matrix(weight, r).product(), w)
    assert erc_err <= direct_err


def test_superiority_inequality_holds_across_trials():
    # Reconstruction error with residual compensation never exceeds the
    # direct whitened truncation at the same total rank.
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        m = int(rng.integers(8, 65))
        n = int(rng.integers(8, 65))
        ratio = float(rng.choice([0.2, 0.3, 0.5]))
        w = rng.standard_normal((m, n))
        weight = whitened_weight(w, random_ctx(rng, n))
        budget = rank_budget(m, n, ratio, 0.05)
        erc_err = frobenius_error(compress_matrix(weight, ratio, 0.05).product(), w)
        direct_err = frobenius_error(direct_truncate_matrix(weight, budget.r).product(), w)
        assert erc_err <= direct_err + 1e-9, f"violated at trial {trial} ({m}x{n}, {ratio})"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from([(96, 6), (6, 96), (128, 4), (4, 128), (4, 4), (24, 24)]),
    samples=st.sampled_from(["few", "many"]),
    dead_share=st.sampled_from([0.0, 0.25, 0.75]),
    ratio=st.sampled_from([0.2, 0.3, 0.5]),
    beta=st.sampled_from([0.05, 0.2, 0.45]),
    seed=st.integers(0, 2**32 - 1),
)
def test_superiority_on_extreme_shapes_and_rank_deficient_activations(
        shape, samples, dead_share, ratio, beta, seed):
    # m >> n, n >> m and width 4, whitened at the default ridge against
    # activations of deficient rank: fewer samples than the width, or relu
    # units that never fire (zero columns).
    m, n = shape
    try:
        budget = rank_budget(m, n, ratio, beta)
    except InfeasibleBudgetError:
        assume(False)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(n // 2, 1) if samples == "few" else 4 * n, n))
    dead = int(dead_share * n)
    x = np.maximum(x, 0.0)
    x[:, :dead] = 0.0
    assume(x.any())
    w = rng.standard_normal((m, n))
    weight = whitened_weight(w, whiten(x))
    erc_err = frobenius_error(compress_matrix(weight, ratio, beta).product(), w)
    direct_err = frobenius_error(direct_truncate_matrix(weight, budget.r).product(), w)
    assert erc_err <= direct_err + 1e-9


def whitened_spectrum(kind, p, rng):
    """Singular values of ``W S`` for the tail-coordinate property test."""
    if kind == "flat":
        return np.ones(p)
    if kind == "paired":  # every value twice: degenerate residual singular values
        return np.repeat(np.geomspace(1.0, 1e-3, (p + 1) // 2), 2)[:p]
    if kind == "decay":
        return np.geomspace(1.0, 1e-14, p)
    if kind == "deficient":
        return np.where(np.arange(p) < max(p // 3, 1), np.geomspace(1.0, 1e-2, p), 0.0)
    return np.sort(rng.random(p))[::-1]


@settings(max_examples=450, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from([(160, 160), (96, 6), (6, 96), (200, 40), (40, 200), (4, 4)]),
    spectrum=st.sampled_from(["flat", "paired", "decay", "deficient", "random"]),
    scale=st.sampled_from([1.0, 1e150, 1e-150, 1e170, 1e-170]),
    activation_scale=st.sampled_from([1.0, 1e150, 1e-150]),
    whitener=st.sampled_from(["identity", "random"]),
    ratio=st.sampled_from([0.2, 0.3, 0.5]),
    beta=st.sampled_from([0.05, 0.2, 0.45]),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_stage_matches_the_dense_residual_svd(
        shape, spectrum, scale, activation_scale, whitener, ratio, beta, seed):
    # The residual stage, factored in the whitened SVD's tail coordinates,
    # leaves the same unwhitened error as truncating svd(W - stage 1). W is
    # built so that W S has the drawn spectrum; at 1e+-170 the Gram matrix of
    # the tail coordinates would leave the float64 range unless rescaled.
    # The activations are scaled before whitening, so S^{-1} and the rows of
    # V^T S^{-1} run to 1e+-150 as well; W, of magnitude
    # scale/activation_scale, must itself stay a normal float64.
    magnitude = scale / activation_scale
    assume(1e-301 < magnitude < 1e301)
    m, n = shape
    try:
        budget = rank_budget(m, n, ratio, beta)
    except InfeasibleBudgetError:
        assume(False)
    rng = np.random.default_rng(seed)
    if whitener == "identity":
        ctx = ScalingContext(s=activation_scale * np.eye(n), s_inv=np.eye(n) / activation_scale,
                             ridge=0.0)
    else:
        ctx = whiten(activation_scale * rng.standard_normal((2 * n, n)))
    p = min(m, n)
    q1 = np.linalg.qr(rng.standard_normal((m, p)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, p)))[0]
    w = scale * ((q1 * whitened_spectrum(spectrum, p, rng)) @ q2.T @ ctx.s_inv)
    weight = whitened_weight(w, ctx)
    # M M^T itself reaches 1e+-300; M / c keeps every entry within 1, its Gram within n
    m, _ = compensation_mod._scaled_tail(weight, budget.r_i)
    assert np.abs(m).max() <= 1.0
    assert np.abs(m @ m.T).max() <= n
    pair = compress_matrix(weight, ratio, beta)
    assert np.isfinite(pair.u_hat).all() and np.isfinite(pair.v_hat).all()
    # The dense truncation's error is the norm of the residual's discarded
    # singular values. Computing only those keeps the reference clear of
    # LAPACK's gesdd, which with vectors fails to converge on a few 160x160
    # residuals.
    residual = (w - direct_truncate_matrix(weight, budget.r_i).product()) / magnitude
    want = np.linalg.norm(np.linalg.svd(residual, compute_uv=False)[budget.r_r:])
    got = np.linalg.norm((w - pair.product()) / magnitude)
    assert abs(got - want) <= 1e-12 * np.linalg.norm(w / magnitude)


def test_residual_svd_factors_an_r_r_row_matrix(monkeypatch):
    # The residual stage never goes back to an SVD of the m x n residual:
    # every " (residual)" SVD a plan runs factors exactly r_r rows.
    model, calib = demo_model(4, 24, seed=3), demo_calibration(64, 24, seed=4)
    expected, seen = [], []
    real_compress, real_svd = planner_mod.compress_matrix, compensation_mod.svd

    def compress(weight, layer_ratio, beta, name="matrix"):
        expected.append(rank_budget(*weight.w.shape, layer_ratio, beta).r_r)
        return real_compress(weight, layer_ratio, beta, name)

    def svd_spy(w, name="matrix"):
        if name.endswith(" (residual)"):
            seen.append((expected[-1], w.shape[0]))
        return real_svd(w, name=name)

    monkeypatch.setattr(planner_mod, "compress_matrix", compress)
    monkeypatch.setattr(compensation_mod, "svd", svd_spy)
    plan(model, calib, PlannerConfig(overall_ratio=0.3, beta=0.1))
    assert len(seen) == sum(r_r > 0 for r_r in expected) > 0
    assert all(rows == r_r for r_r, rows in seen)


def failing_eigh(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("shape", [(24, 18), (18, 24), (20, 20)])
def test_residual_eigh_failure_falls_back_to_the_svd(monkeypatch, shape):
    # With eigh failing, the SVD of the scaled tail block gives the same
    # residual truncation: the error matches the primary route's.
    rng = np.random.default_rng(71)
    m, n = shape
    w = rng.standard_normal((m, n))
    weight = whitened_weight(w, random_ctx(rng, n))
    assert rank_budget(m, n, 0.3, 0.2).r_r > 1
    primary = compress_matrix(weight, 0.3, 0.2)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    fallback = compress_matrix(weight, 0.3, 0.2)
    gap = frobenius_error(fallback.product(), w) - frobenius_error(primary.product(), w)
    assert abs(gap) <= 1e-12 * np.linalg.norm(w)
    assert frobenius_error(fallback.product(), primary.product()) <= 1e-12 * np.linalg.norm(w)


def test_residual_eigh_and_svd_failure_names_the_matrix(monkeypatch):
    rng = np.random.default_rng(72)
    w = rng.standard_normal((20, 20))
    weight = whitened_weight(w, random_ctx(rng, 20))

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(NumericalError, match=r"^SVD failed to converge on layer3/w "
                                             r"\(residual fallback\)$"):
        compress_matrix(weight, 0.3, 0.2, name="layer3/w")


def test_residual_stage_is_optimal_among_random_competitors():
    rng = np.random.default_rng(31337)
    w = rng.standard_normal((24, 18))
    ctx = random_ctx(rng, 18)
    budget = rank_budget(24, 18, 0.3, 0.05)
    stage1 = direct_truncate_matrix(whitened_weight(w, ctx), budget.r_i)
    residual = w - stage1.product()
    best = frobenius_error(truncate(svd(residual), budget.r_r).product(), residual)
    for _ in range(20):
        b = rng.standard_normal((24, budget.r_r)) @ rng.standard_normal((budget.r_r, 18))
        assert best <= frobenius_error(b, residual) + 1e-9


def test_rank_accounting():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((20, 12))
    ctx = random_ctx(rng, 12)
    budget = rank_budget(20, 12, 0.4, 0.05)
    pair = compress_matrix(whitened_weight(w, ctx), 0.4, 0.05)
    assert pair.rank == budget.r == budget.r_i + budget.r_r
    assert pair.param_count == (20 + 12) * budget.r


def test_identity_context_matches_plain_svd():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((10, 10))
    pair = direct_truncate_matrix(whitened_weight(w, identity_ctx(10)), 4)
    plain = truncate(svd(w), 4)
    np.testing.assert_allclose(pair.product(), plain.product(), atol=1e-10)


def test_direct_truncation_matches_independent_script():
    # Independently scripted SVD_r(WS) S^-1 with raw numpy calls.
    rng = np.random.default_rng(44)
    w = rng.standard_normal((8, 8))
    ctx = random_ctx(rng, 8)
    r = 3
    u, s, vt = np.linalg.svd(w @ ctx.s, full_matrices=False)
    expected = (u[:, :r] * s[:r]) @ vt[:r] @ np.linalg.inv(ctx.s)
    got = direct_truncate_matrix(whitened_weight(w, ctx), r).product()
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_compressed_product_invariant_to_activation_scale():
    # Scaling the calibration activations by c > 0 rescales S but leaves the
    # compressed product unchanged.
    rng = np.random.default_rng(66)
    w = rng.standard_normal((12, 9))
    x = rng.standard_normal((30, 9))
    base = compress_matrix(whitened_weight(w, whiten(x, ridge=0.0)), 0.4, 0.05)
    scaled = compress_matrix(whitened_weight(w, whiten(7.0 * x, ridge=0.0)), 0.4, 0.05)
    np.testing.assert_allclose(base.product(), scaled.product(), atol=1e-8)


def test_dimension_and_budget_errors_propagate():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((6, 4))
    with pytest.raises(DimensionError):
        compress_matrix(whitened_weight(w, identity_ctx(5)), 0.2, 0.05)
    with pytest.raises(InfeasibleBudgetError):
        compress_matrix(whitened_weight(w, identity_ctx(4)), 0.9, 0.05)
