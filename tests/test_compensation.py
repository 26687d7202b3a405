"""Residual compensation: degeneration, exactness, and the superiority inequality."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resvd.calibration import ScalingContext, whiten
from resvd.compensation import compress_matrix, direct_truncate_matrix
from resvd.errors import DimensionError, InfeasibleBudgetError
from resvd.linalg import frobenius_error, rank_budget, svd, truncate


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
        ctx = random_ctx(trial, n)
        erc = compress_matrix(w, ctx, 0.5, 0.0)
        direct = direct_truncate_matrix(w, ctx, rank_budget(m, n, 0.5, 0.0).r)
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
    pair = direct_truncate_matrix(w, ctx, 8)
    assert frobenius_error(pair.product(), w) <= 1e-8 * np.linalg.norm(w)


def test_compensation_beats_direct_truncation_on_seeded_case():
    rng = np.random.default_rng(2024)
    w = rng.standard_normal((16, 16))
    ctx = random_ctx(rng, 16)
    erc_err = frobenius_error(compress_matrix(w, ctx, 0.5, 0.05).product(), w)
    r = rank_budget(16, 16, 0.5, 0.05).r
    direct_err = frobenius_error(direct_truncate_matrix(w, ctx, r).product(), w)
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
        ctx = random_ctx(rng, n)
        budget = rank_budget(m, n, ratio, 0.05)
        erc_err = frobenius_error(compress_matrix(w, ctx, ratio, 0.05).product(), w)
        direct_err = frobenius_error(direct_truncate_matrix(w, ctx, budget.r).product(), w)
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
    ctx = whiten(x)
    w = rng.standard_normal((m, n))
    erc_err = frobenius_error(compress_matrix(w, ctx, ratio, beta).product(), w)
    direct_err = frobenius_error(direct_truncate_matrix(w, ctx, budget.r).product(), w)
    assert erc_err <= direct_err + 1e-9


def test_residual_stage_is_optimal_among_random_competitors():
    rng = np.random.default_rng(31337)
    w = rng.standard_normal((24, 18))
    ctx = random_ctx(rng, 18)
    budget = rank_budget(24, 18, 0.3, 0.05)
    stage1 = direct_truncate_matrix(w, ctx, budget.r_i)
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
    pair = compress_matrix(w, ctx, 0.4, 0.05)
    assert pair.rank == budget.r == budget.r_i + budget.r_r
    assert pair.param_count == (20 + 12) * budget.r


def test_identity_context_matches_plain_svd():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((10, 10))
    pair = direct_truncate_matrix(w, identity_ctx(10), 4)
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
    got = direct_truncate_matrix(w, ctx, r).product()
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_compressed_product_invariant_to_activation_scale():
    # Scaling the calibration activations by c > 0 rescales S but leaves the
    # compressed product unchanged.
    rng = np.random.default_rng(66)
    w = rng.standard_normal((12, 9))
    x = rng.standard_normal((30, 9))
    base = compress_matrix(w, whiten(x, ridge=0.0), 0.4, 0.05).product()
    scaled = compress_matrix(w, whiten(7.0 * x, ridge=0.0), 0.4, 0.05).product()
    np.testing.assert_allclose(base, scaled, atol=1e-8)


def test_dimension_and_budget_errors_propagate():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((6, 4))
    with pytest.raises(DimensionError):
        compress_matrix(w, identity_ctx(5), 0.2, 0.05)
    with pytest.raises(InfeasibleBudgetError):
        compress_matrix(w, identity_ctx(4), 0.9, 0.05)
