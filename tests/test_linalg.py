"""Core SVD/truncation/budget tests, checked against independent oracles."""

import numpy as np
import pytest

from resvd.errors import DimensionError, InfeasibleBudgetError, InvalidRankError, NumericalError
from resvd.linalg import FactorPair, as_matrix, frobenius_error, rank_budget, svd, truncate


def test_svd_identity():
    f = svd(np.eye(3))
    np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0], atol=1e-12)


def test_svd_diagonal():
    f = svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-12)


def test_svd_sigma_matches_eigenvalue_oracle():
    # Independent oracle: singular values are sqrt of eigenvalues of W^T W.
    rng = np.random.default_rng(42)
    w = rng.standard_normal((8, 5))
    f = svd(w)
    gram_eigs = np.linalg.eigvalsh(w.T @ w)[::-1]
    np.testing.assert_allclose(f.sigma, np.sqrt(np.clip(gram_eigs, 0.0, None)), atol=1e-8)


def test_svd_reconstructs_input():
    rng = np.random.default_rng(3)
    for shape in [(4, 4), (7, 3), (3, 9)]:
        w = rng.standard_normal(shape)
        f = svd(w)
        rebuilt = (f.u * f.sigma) @ f.vt
        assert np.linalg.norm(rebuilt - w) / np.linalg.norm(w) <= 1e-8
        # orthonormal columns/rows
        p = f.sigma.shape[0]
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(p), atol=1e-8)
        np.testing.assert_allclose(f.vt @ f.vt.T, np.eye(p), atol=1e-8)


def test_svd_rejects_nonfinite():
    w = np.ones((2, 2))
    w[0, 1] = np.nan
    with pytest.raises(NumericalError):
        svd(w, name="bad")


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((6, 6))
    f1, f2 = svd(w), svd(w.copy())
    assert f1.u.tobytes() == f2.u.tobytes()
    assert f1.vt.tobytes() == f2.vt.tobytes()
    # largest-magnitude entry of every left singular vector is non-negative
    peaks = np.argmax(np.abs(f1.u), axis=0)
    assert np.all(f1.u[peaks, np.arange(6)] >= 0)


def failing_svd(monkeypatch, fails):
    """Make ``np.linalg.svd`` raise on its first ``fails`` calls; return the shapes it is given."""
    real, shapes = np.linalg.svd, []

    def svd_(a, *args, **kwargs):
        shapes.append(a.shape)
        if len(shapes) <= fails:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_)
    return shapes


def distinct_spectrum(rng, m, n):
    """An m x n matrix with well-separated singular values 2^-j."""
    p = min(m, n)
    q1, _ = np.linalg.qr(rng.standard_normal((m, p)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return (q1 * 2.0 ** -np.arange(p)) @ q2.T


@pytest.mark.parametrize("shape", [(9, 6), (6, 9), (7, 7)])
@pytest.mark.parametrize("fails", [1, 2])
def test_svd_retries_the_transpose_then_the_qr_factor(monkeypatch, shape, fails):
    # After the primary route fails, the transpose is factored; after that
    # fails too, the square R of a QR. Either gives the primary factors,
    # under the same sign convention, within 1e-12 relative.
    w = distinct_spectrum(np.random.default_rng(5), *shape)
    want = svd(w)
    shapes = failing_svd(monkeypatch, fails)
    got = svd(w, name="W")
    m, n = shape
    assert shapes == [(m, n), (n, m), (min(m, n),) * 2][: fails + 1]
    assert np.max(np.abs(got.sigma - want.sigma)) <= 1e-12 * want.sigma[0]
    assert np.max(np.abs(got.u - want.u)) <= 1e-12
    assert np.max(np.abs(got.vt - want.vt)) <= 1e-12
    for a in (got.u, got.vt):
        assert a.flags.c_contiguous


def test_svd_failing_every_route_names_the_matrix(monkeypatch):
    shapes = failing_svd(monkeypatch, fails=3)
    with pytest.raises(NumericalError, match=r"^SVD failed to converge on W$") as info:
        svd(np.random.default_rng(6).standard_normal((5, 4)), name="W")
    assert len(shapes) == 3
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_truncate_full_rank_exact():
    w = np.diag([3.0, 2.0, 1.0])
    pair = truncate(svd(w), 3)
    assert frobenius_error(pair.product(), w) <= 1e-10


def test_truncate_discarded_singular_value_is_error():
    # Discarding sigma_3 = 1 costs exactly sqrt(1^2) = 1 in Frobenius norm.
    w = np.diag([3.0, 2.0, 1.0])
    pair = truncate(svd(w), 2)
    assert frobenius_error(pair.product(), w) == pytest.approx(1.0, abs=1e-10)


def test_truncate_exact_on_rank_one_input():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((7, 1))
    v = rng.standard_normal((1, 4))
    w = u @ v
    pair = truncate(svd(w), 1)
    assert frobenius_error(pair.product(), w) <= 1e-10


def test_truncate_invalid_ranks():
    f = svd(np.eye(3))
    with pytest.raises(InvalidRankError):
        truncate(f, 0)
    with pytest.raises(InvalidRankError):
        truncate(f, 4)


def test_truncate_splits_singular_values():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((6, 5))
    f = svd(w)
    pair = truncate(f, 3)
    np.testing.assert_allclose(pair.u_hat, f.u[:, :3] * np.sqrt(f.sigma[:3]), atol=1e-12)
    np.testing.assert_allclose(pair.v_hat, np.sqrt(f.sigma[:3])[:, None] * f.vt[:3], atol=1e-12)


def test_rank_budget_hand_cases():
    b = rank_budget(64, 64, 0.5, 0.0)
    assert (b.alpha, b.r, b.r_i, b.r_r) == (32.0, 16, 16, 0)
    b = rank_budget(64, 64, 0.5, 0.05)
    assert (b.r, b.r_r, b.r_i) == (16, 2, 14)
    b = rank_budget(8, 8, 0.0, 0.0)
    assert b.r == 4  # floor(alpha) is the lossless maximum


def test_rank_budget_residual_clamps():
    # beta > 0 forces at least one residual component when there is room
    b = rank_budget(64, 64, 0.5, 0.001)
    assert b.r_r == 1
    # and collapses to zero when r == 1 leaves no room
    b = rank_budget(4, 4, 0.4, 0.05)
    assert (b.r, b.r_r) == (1, 0)


def test_rank_budget_infeasible():
    with pytest.raises(InfeasibleBudgetError) as exc:
        rank_budget(4, 4, 0.9, 0.05)
    assert exc.value.rows == 4 and exc.value.layer_ratio == 0.9


def test_rank_budget_rejects_bad_ratios():
    with pytest.raises(ValueError):
        rank_budget(8, 8, 1.0, 0.0)
    with pytest.raises(ValueError):
        rank_budget(8, 8, 0.2, -0.1)


def test_frobenius_error_basic():
    a = np.zeros((2, 2))
    b = np.ones((2, 2))
    assert frobenius_error(a, a) == 0.0
    assert frobenius_error(a, b) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DimensionError):
        frobenius_error(np.zeros((2, 2)), np.zeros((3, 2)))


def test_frobenius_error_matches_naive_loop():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((5, 7))
    total = 0.0
    for i in range(5):
        for j in range(7):
            total += (a[i, j] - b[i, j]) ** 2
    assert frobenius_error(a, b) == pytest.approx(total**0.5, abs=1e-12)


def test_eckart_young_beats_random_competitors():
    # Truncated SVD never loses to a random rank-r matrix (Eckart-Young-Mirsky).
    rng = np.random.default_rng(2024)
    for trial in range(100):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(4, 33))
        w = rng.standard_normal((m, n))
        r = int(rng.integers(1, min(m, n) + 1))
        best = frobenius_error(truncate(svd(w), r).product(), w)
        for _ in range(20):
            b = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            assert best <= frobenius_error(b, w) + 1e-9


def test_truncation_error_monotone_in_rank():
    rng = np.random.default_rng(77)
    w = rng.standard_normal((12, 9))
    f = svd(w)
    errs = [frobenius_error(truncate(f, r).product(), w) for r in range(1, 10)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))


def test_product_invariant_under_sign_flips():
    rng = np.random.default_rng(31)
    w = rng.standard_normal((8, 8))
    f = svd(w)
    flipped = type(f)(u=f.u * -1.0, sigma=f.sigma, vt=f.vt * -1.0)
    a = truncate(f, 4).product()
    b = truncate(flipped, 4).product()
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_factor_pair_parameter_count():
    pair = FactorPair(u_hat=np.zeros((6, 2)), v_hat=np.zeros((2, 9)))
    assert pair.param_count == (6 + 9) * 2
    with pytest.raises(InvalidRankError):
        FactorPair(u_hat=np.zeros((3, 4)), v_hat=np.zeros((4, 5)))


def test_factor_pair_inner_dimensions_must_agree():
    with pytest.raises(DimensionError, match="factor ranks 2/3 disagree"):
        FactorPair(u_hat=np.zeros((6, 2)), v_hat=np.zeros((3, 9)))


def test_as_matrix_validation():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(3))
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 2)))
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]
