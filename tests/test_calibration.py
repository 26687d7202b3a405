"""The calibration pass and whitening-context construction."""

import numpy as np
import pytest

from resvd.calibration import (
    CalibrationSet,
    ScalingContext,
    capture_activations,
    whiten,
)
from resvd.errors import DimensionError, NumericalError, SingularWhiteningError
from resvd.model import Layer, MatrixEntry, SequentialModel, forward


def dense_layer(name, w, activation="identity"):
    return Layer(name=name, entries=(MatrixEntry(name="w", dense=w),), activation=activation)


def whitened_inputs(model, calib):
    """The pass over the whole model: each matrix's whitening context, the norms, the output."""
    return capture_activations(model, calib, model.n_layers, lambda w, ctx, key: ctx)


def assert_whitened_from(ctx, x):
    """``ctx`` is, bit for bit, the context :func:`whiten` builds from ``x``."""
    want = whiten(x)
    assert ctx.s.tobytes() == want.s.tobytes()
    assert ctx.s_inv.tobytes() == want.s_inv.tobytes()


def test_first_layer_sees_raw_input():
    model = SequentialModel(layers=(dense_layer("l0", np.eye(3)),))
    x = np.arange(12.0).reshape(4, 3)
    calib = CalibrationSet(samples=x)
    contexts, norms, output = whitened_inputs(model, calib)
    assert_whitened_from(contexts["l0/w"], x)
    np.testing.assert_array_equal(output, x)
    assert norms == (float(np.linalg.norm(x)),)


def test_second_layer_sees_post_activation_output():
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((5, 3))
    w2 = rng.standard_normal((2, 5))
    model = SequentialModel(
        layers=(dense_layer("l0", w1, "relu"), dense_layer("l1", w2)),
    )
    x = rng.standard_normal((7, 3))
    contexts, _, _ = whitened_inputs(model, CalibrationSet(samples=x))
    # naive recomputation of the ReLU output feeding layer 1
    expected = np.maximum(x @ w1.T, 0.0)
    assert_whitened_from(contexts["l1/w"], expected)


def test_capture_names_the_matrix_whose_output_overflows():
    # l1's output overflows to -inf, which its relu would turn into zeros;
    # the pass names the matrix before the activation can hide it.
    model = SequentialModel(
        layers=(dense_layer("l0", np.eye(2), "relu"),
                dense_layer("l1", np.full((2, 2), -1e300), "relu"),
                dense_layer("l2", np.eye(2))),
    )
    with pytest.raises(NumericalError, match=r"^l1/w: output overflows float64"):
        whitened_inputs(model, CalibrationSet(samples=np.full((3, 2), 1e10)))


def test_capture_keys_in_forward_order():
    rng = np.random.default_rng(3)
    layer = Layer(
        name="mlp",
        entries=(
            MatrixEntry(name="up", dense=rng.standard_normal((6, 4))),
            MatrixEntry(name="down", dense=rng.standard_normal((4, 6))),
        ),
        activation="relu",
    )
    model = SequentialModel(layers=(layer, dense_layer("out", np.eye(4))))
    x = rng.standard_normal((3, 4))
    samples = x.copy()
    contexts, norms, output = whitened_inputs(model, CalibrationSet(samples=x))
    assert list(contexts) == ["mlp/up", "mlp/down", "out/w"]
    # the second entry sees the intermediate product, pre-activation
    product = x @ layer.entries[0].dense.T
    assert (product < 0).any()
    assert_whitened_from(contexts["mlp/down"], product)
    # the output and norms are the model's; the calibration rows are never written
    outputs = forward(model, x)
    np.testing.assert_array_equal(output, outputs[-1])
    assert norms == tuple(float(np.linalg.norm(y)) for y in outputs)
    np.testing.assert_array_equal(x, samples)


def test_capture_whitens_the_tail_only():
    # Prefix matrices run but are never whitened, and each tail matrix's
    # factor call gets its own dense weight and key.
    rng = np.random.default_rng(4)
    model = SequentialModel(
        layers=tuple(dense_layer(f"l{i}", rng.standard_normal((4, 4)), "relu")
                     for i in range(4)),
    )
    calib = CalibrationSet(samples=rng.standard_normal((10, 4)))
    calls = []

    def factor(w, ctx, key):
        calls.append(key)
        return w

    weights, norms, _ = capture_activations(model, calib, 2, factor)
    assert calls == ["l2/w", "l3/w"]
    assert all(weights[f"l{i}/w"] is model.layers[i].entries[0].dense for i in (2, 3))
    assert len(norms) == 4


def test_zero_sample_calibration_rejected():
    with pytest.raises(DimensionError):
        CalibrationSet(samples=np.zeros((0, 3)))


def test_capture_rejects_width_mismatch():
    model = SequentialModel(layers=(dense_layer("l0", np.eye(3)),))
    with pytest.raises(DimensionError):
        whitened_inputs(model, CalibrationSet(samples=np.zeros((2, 4))))


def test_whiten_identity_gram():
    # Orthonormal rows: X^T X = I, so S and its inverse are both I.
    ctx = whiten(np.eye(4), ridge=0.0)
    np.testing.assert_allclose(ctx.s, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(ctx.s_inv, np.eye(4), atol=1e-12)


def test_whiten_hand_cholesky():
    # X^T X + I = diag(5, 1) whose Cholesky factor is diag(sqrt5, 1).
    x = np.array([[2.0, 0.0], [0.0, 0.0]])
    ctx = whiten(x, ridge=1.0)
    np.testing.assert_allclose(ctx.s, np.diag([np.sqrt(5.0), 1.0]), atol=1e-12)


def test_whiten_rank_deficient_raises():
    x = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularWhiteningError):
        whiten(x, ridge=0.0)


def test_whiten_default_ridge_rescues_rank_deficiency():
    x = np.array([[1.0, 0.0], [2.0, 0.0]])
    ctx = whiten(x)  # default ridge = 1e-6 * trace/n
    assert ctx.ridge > 0
    n = 2
    np.testing.assert_allclose(ctx.s @ ctx.s_inv, np.eye(n), atol=1e-6)


def test_whitening_identity_holds_for_random_contexts():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        x = rng.standard_normal((n + 3, n))
        ctx = whiten(x, ridge=None)
        np.testing.assert_allclose(ctx.s @ ctx.s_inv, np.eye(n), atol=1e-6)
        assert np.all(np.diag(ctx.s) > 0)
        # lower-triangular
        assert np.allclose(ctx.s, np.tril(ctx.s))


def test_whitening_scales_linearly_with_input():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 4))
    c = 3.5
    a = whiten(x, ridge=0.0)
    b = whiten(c * x, ridge=0.0)
    np.testing.assert_allclose(b.s, c * a.s, rtol=1e-10)


def test_whitening_deterministic():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((12, 5))
    a = whiten(x.copy())
    b = whiten(x.copy())
    assert a.s.tobytes() == b.s.tobytes()
    assert a.s_inv.tobytes() == b.s_inv.tobytes()


def test_whiten_rejects_negative_ridge_and_bad_input():
    with pytest.raises(ValueError):
        whiten(np.eye(2), ridge=-1.0)
    with pytest.raises(NumericalError):
        whiten(np.array([[np.inf, 0.0]]))
    with pytest.raises(SingularWhiteningError, match="overflows float64"):
        whiten(np.array([[1e308, 1.0], [2.0, 3.0]]))


def test_whiten_rejects_an_overflowing_gram_trace():
    # Every Gram entry is finite, but the trace the default ridge scales with
    # is not; numpy must not warn on the way.
    with pytest.raises(SingularWhiteningError, match="overflows float64"):
        whiten(np.diag([1.2e154, 1.2e154]))


@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_scaling_context_rejects_nan_factor(where):
    s = np.eye(3)
    s[(1, 1) if where == "diagonal" else (2, 0)] = np.nan
    with pytest.raises(SingularWhiteningError):
        ScalingContext(s=s, s_inv=np.eye(3), ridge=0.0)


def test_whitening_contexts_cover_every_matrix():
    rng = np.random.default_rng(15)
    model = SequentialModel(
        layers=(
            dense_layer("l0", rng.standard_normal((6, 4)), "relu"),
            dense_layer("l1", rng.standard_normal((3, 6))),
        ),
    )
    calib = CalibrationSet(samples=rng.standard_normal((20, 4)))
    contexts, _, _ = whitened_inputs(model, calib)
    assert set(contexts) == {"l0/w", "l1/w"}
    for ctx in contexts.values():
        n = ctx.s.shape[0]
        np.testing.assert_allclose(ctx.s @ ctx.s_inv, np.eye(n), atol=1e-6)


def test_subsample_is_seeded_and_stable():
    rng = np.random.default_rng(5)
    calib = CalibrationSet(samples=rng.standard_normal((50, 3)))
    a = calib.subsample(10, seed=42)
    b = calib.subsample(10, seed=42)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.num_samples == 10
    c = calib.subsample(100, seed=1)
    assert c.num_samples == 50
