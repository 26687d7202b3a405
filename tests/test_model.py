"""Forward pass, error reports, and parameter/MAC accounting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import resvd.calibration
from resvd.calibration import CalibrationSet, capture_activations, gram, whiten
from resvd.errors import DimensionError
from resvd.linalg import FactorPair, RankBudget, svd, truncate
from resvd.model import (
    Layer,
    MatrixEntry,
    SequentialModel,
    Workspace,
    _relative_error,
    _squares_in_step,
    _walk,
    apply_activation,
    forward,
    layerwise_error,
    mac_count,
    parameter_count,
)


def dense_layer(name, w, activation="identity"):
    return Layer(name=name, entries=(MatrixEntry(name="w", dense=w),), activation=activation)


def make_mlp(rng, widths, activation="relu", last="identity"):
    layers = []
    for i, (n, m) in enumerate(zip(widths, widths[1:])):
        act = last if i == len(widths) - 2 else activation
        layers.append(dense_layer(f"layer{i}", rng.standard_normal((m, n)), act))
    return SequentialModel(layers=tuple(layers))


def naive_forward(model, x):
    # Independent oracle: explicit per-sample, per-output loops.
    outs = []
    h = x
    for layer in model.layers:
        for e in layer.entries:
            w = e.dense
            nxt = np.zeros((h.shape[0], w.shape[0]))
            for s in range(h.shape[0]):
                for i in range(w.shape[0]):
                    acc = 0.0
                    for j in range(w.shape[1]):
                        acc += h[s, j] * w[i, j]
                    nxt[s, i] = acc
            h = nxt
        if layer.activation == "relu":
            h = np.where(h > 0, h, 0.0)
        elif layer.activation == "silu":
            h = h / (1.0 + np.exp(-h)) * 1.0
        outs.append(h)
        h = outs[-1]
    return outs


def test_forward_identity_layer():
    model = SequentialModel(layers=(dense_layer("l0", np.eye(4)),))
    x = np.arange(8.0).reshape(2, 4)
    np.testing.assert_allclose(forward(model, x)[-1], x)


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_forward_matches_naive_oracle(activation):
    rng = np.random.default_rng(99)
    model = make_mlp(rng, [4, 5, 6, 3], activation=activation)
    x = rng.standard_normal((7, 4))
    ours = forward(model, x)
    oracle = naive_forward(model, x)
    for a, b in zip(ours, oracle):
        np.testing.assert_allclose(a, b, atol=1e-10)


def activation_workspace(h):
    """A workspace for ``h``'s rows whose scratch pair holds a sigmoid of ``h``'s width."""
    return Workspace(len(h), SequentialModel(
        layers=(dense_layer("l0", np.zeros((h.shape[1], 1)), "silu"),)))


def test_silu_is_finite_and_exact_at_extremes():
    x = np.array([[-1e308, -1000.0, 0.0, 1000.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_activation("silu", x, activation_workspace(x))
    # x * sigmoid(x) in float64: sigmoid(-1000) underflows to 0, sigmoid(1000) rounds to 1
    want = np.array([[0.0, 0.0, 0.0, 1000.0, 1e308]])
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("activation", ["identity", "relu", "silu"])
def test_forward_never_writes_its_input(activation):
    rng = np.random.default_rng(98)
    for model in (SequentialModel(layers=(dense_layer("l0", np.eye(4), activation),)),
                  make_mlp(rng, [4, 5, 4], activation=activation, last=activation)):
        x = rng.standard_normal((6, 4))
        before = x.copy()
        outputs = forward(model, x)
        assert np.array_equal(x, before)
        assert all(not np.shares_memory(y, x) for y in outputs)
        assert np.array_equal(model.layers[0].forward(x, Workspace(len(x), model)), outputs[0])
        assert np.array_equal(x, before)


def test_in_place_activations_equal_the_allocating_formulas():
    rng = np.random.default_rng(97)
    x = np.concatenate([
        rng.standard_normal(4096) * 10.0 ** rng.integers(-8, 8, 4096),
        [-1e308, -1000.0, -40.0, -5e-324, -0.0, 0.0, 5e-324, 40.0, 1000.0, 1e308],
    ]).reshape(1, -1)
    for name, want in (("silu", x * (0.5 + 0.5 * np.tanh(0.5 * x))),
                       ("relu", np.maximum(x, 0.0)),
                       ("identity", x)):
        h = x.copy()
        got = apply_activation(name, h, activation_workspace(h))
        assert got is h
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_forward_rejects_wrong_width():
    model = SequentialModel(layers=(dense_layer("l0", np.eye(4)),))
    with pytest.raises(DimensionError):
        forward(model, np.zeros((2, 5)))


def test_factored_full_rank_matches_dense():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((6, 6))
    pair = truncate(svd(w), 6)
    dense = SequentialModel(layers=(dense_layer("l0", w, "silu"),))
    fact = SequentialModel(
        layers=(
            Layer(
                name="l0",
                entries=(MatrixEntry(name="w", factors=pair),),
                activation="silu",
            ),
        ),
    )
    x = rng.standard_normal((5, 6))
    np.testing.assert_allclose(forward(fact, x)[-1], forward(dense, x)[-1], atol=1e-8)


def test_factored_evaluation_equals_materialized_product():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((8, 5))
    pair = truncate(svd(w), 3)
    entry = MatrixEntry(name="w", factors=pair)
    x = rng.standard_normal((4, 5))
    ws = Workspace(len(x), SequentialModel(layers=(Layer(name="l0", entries=(entry,)),)))
    np.testing.assert_allclose(entry.apply(x, np.empty((4, 8)), ws), x @ pair.product().T,
                               atol=1e-9)


@pytest.mark.parametrize("make", [
    lambda w: MatrixEntry(name="w", rows=3, cols=3, dense=w),
    lambda w: MatrixEntry(name="w", dense=w, store_dtype="f32"),
    lambda w: SequentialModel(layers=(dense_layer("l0", w),), input_dim=3),
    lambda w: FactorPair(u_hat=w[:, :2], v_hat=w[:2], rank=2),
    lambda w: RankBudget(alpha=1.5, r=2, r_i=2, r_r=0),
], ids=["rows-cols", "store-dtype", "input-dim", "rank", "budget-r"])
def test_removed_size_keywords_are_type_errors(make):
    with pytest.raises(TypeError):
        make(np.eye(3))


@pytest.mark.parametrize("dense", [np.zeros(4), np.zeros((2, 2, 2))])
def test_dense_entry_must_be_2d(dense):
    with pytest.raises(DimensionError, match="dense weight must be 2-D"):
        MatrixEntry(name="w", dense=dense)


def test_dim_chain_validated_at_construction():
    rng = np.random.default_rng(0)
    a = dense_layer("a", rng.standard_normal((5, 4)))
    b = dense_layer("b", rng.standard_normal((3, 6)))  # expects width 6, gets 5
    with pytest.raises(DimensionError):
        SequentialModel(layers=(a, b))


def test_multi_entry_layer_chains_within_layer():
    rng = np.random.default_rng(4)
    w1 = rng.standard_normal((6, 4))
    w2 = rng.standard_normal((3, 6))
    layer = Layer(
        name="mlp",
        entries=(
            MatrixEntry(name="up", dense=w1),
            MatrixEntry(name="down", dense=w2),
        ),
        activation="relu",
    )
    model = SequentialModel(layers=(layer,))
    x = rng.standard_normal((2, 4))
    expected = np.maximum((x @ w1.T) @ w2.T, 0.0)
    np.testing.assert_allclose(forward(model, x)[-1], expected, atol=1e-12)


def test_layerwise_error_identical_models():
    rng = np.random.default_rng(7)
    model = make_mlp(rng, [4, 4, 4, 4])
    calib = CalibrationSet(samples=rng.standard_normal((10, 4)))
    errors = layerwise_error(model, model, calib)
    assert len(errors) == model.n_layers
    assert all(err <= 1e-12 for err in errors)


def compress_entry(entry, r):
    return MatrixEntry(
        name=entry.name,
        factors=truncate(svd(entry.dense), r),
    )


def replace_tail(model, k, r):
    layers = list(model.layers)
    for i in range(len(layers) - k, len(layers)):
        old = layers[i]
        layers[i] = Layer(
            name=old.name,
            entries=tuple(compress_entry(e, r) for e in old.entries),
            activation=old.activation,
        )
    return SequentialModel(layers=tuple(layers))


def test_layerwise_error_zero_prefix_when_tail_compressed():
    rng = np.random.default_rng(13)
    model = make_mlp(rng, [8] * 5, activation="relu")
    calib = CalibrationSet(samples=rng.standard_normal((16, 8)))
    compressed = replace_tail(model, 1, 2)
    errors = layerwise_error(model, compressed, calib)
    for idx, err in enumerate(errors[:-1], 1):
        assert err <= 1e-12, f"layer {idx} should be untouched"
    assert errors[-1] > 0


def test_layerwise_error_matches_independent_recomputation():
    rng = np.random.default_rng(55)
    model = make_mlp(rng, [8] * 5, activation="relu")
    calib = CalibrationSet(samples=rng.standard_normal((16, 8)))
    compressed = replace_tail(model, 2, 3)
    errors = layerwise_error(model, compressed, calib)
    # independent end-to-end recomputation of the final error
    y_ref = forward(model, calib.samples)[-1]
    y_got = forward(compressed, calib.samples)[-1]
    expected = np.linalg.norm(y_got - y_ref) / np.linalg.norm(y_ref)
    assert errors[-1] == pytest.approx(expected, abs=1e-10)


def errors_in_step(layers, reference, h, ws):
    """Each layer's relative error, finished from the squares of ``h`` as one block."""
    return [_relative_error(error_sq, math.sqrt(ref_sq))
            for error_sq, ref_sq in _squares_in_step(layers, reference, h, ws)]


def diff_buffer_errors(outputs, references):
    """Relative errors with each difference in a buffer of its own, as
    scoring computed them before it subtracted in place."""
    errors = []
    for y, y_ref in zip(outputs, references, strict=True):
        diff = np.empty_like(y)
        np.subtract(y, y_ref, out=diff)
        norm = float(np.linalg.norm(y_ref))
        errors.append(math.nan if norm == 0.0 else float(np.linalg.norm(diff)) / norm)
    return errors


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_in_place_scoring_equals_a_diff_buffer_bit_for_bit(activation):
    # Scoring subtracts each reference into its layer's own output once the
    # next layer has read that output: the errors match the diff-buffer
    # formula exactly, and neither the calibration rows nor the input and
    # reference outputs given to _squares_in_step are written. The widths differ layer to
    # layer.
    rng = np.random.default_rng(61)
    model = make_mlp(rng, [9, 7, 11, 6, 8], activation=activation)
    calib = CalibrationSet(samples=rng.standard_normal((20, 9)))
    samples = calib.samples.copy()
    k = 3
    compressed = replace_tail(model, k, 2)
    refs = forward(model, samples)
    want = diff_buffer_errors(forward(compressed, samples), refs)
    assert all(err > 0 for err in want[-k:])

    assert layerwise_error(model, compressed, calib) == tuple(want)
    assert np.array_equal(calib.samples, samples)

    kept = [y.copy() for y in refs]
    ws = Workspace(calib.num_samples, model)
    assert errors_in_step(compressed.layers[-k:], model.layers[-k:], refs[-k - 1],
                           ws) == want[-k:]
    for got, before in zip(refs, kept, strict=True):
        assert np.array_equal(got, before)


def fresh_forward(model, x):
    """Every layer's output with each product and activation a fresh array."""
    outs, h = [], x
    for layer in model.layers:
        for e in layer.entries:
            if e.factors is None:
                h = h @ e.dense.T
            else:
                h = (h @ e.factors.v_hat.T) @ e.factors.u_hat.T
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        elif layer.activation == "silu":
            h = h * (0.5 + 0.5 * np.tanh(0.5 * h))
        outs.append(h)
    return outs


def test_workspace_walk_equals_a_fresh_array_walk_bit_for_bit():
    # Rectangular layers of two and three entries, each wider or narrower
    # than the next, so entries run through the scratch pair at widths of
    # their own; factored tail entries run through the rank scratch. Every
    # walk output and every score equals the fresh-array computation, and so
    # do the calibration pass's norms, output and each matrix's whitening.
    rng = np.random.default_rng(64)
    shapes = [[(14, 9), (6, 14)], [(11, 6), (13, 11), (8, 13)], [(5, 8), (12, 5)],
              [(7, 12), (10, 7)], [(9, 10)]]
    model = SequentialModel(layers=tuple(
        Layer(name=f"layer{i}", activation="silu" if i < len(shapes) - 1 else "identity",
              entries=tuple(MatrixEntry(name=f"w{j}", dense=rng.standard_normal(shape))
                            for j, shape in enumerate(layer)))
        for i, layer in enumerate(shapes)))
    k = 3
    compressed = replace_tail(model, k, 2)
    calib = CalibrationSet(samples=rng.standard_normal((33, 9)))
    refs, outs = fresh_forward(model, calib.samples), fresh_forward(compressed, calib.samples)
    want = diff_buffer_errors(outs, refs)
    assert all(err > 0 for err in want[-k:])

    ws = Workspace(calib.num_samples, model)
    for got, fresh in zip(_walk(compressed.layers, calib.samples, ws), outs, strict=True):
        assert np.array_equal(got.view(np.uint64), fresh.view(np.uint64))
    assert layerwise_error(model, compressed, calib) == tuple(want)
    assert layerwise_error(model, rebuilt(compressed), calib) == tuple(want)
    assert errors_in_step(compressed.layers[-k:], model.layers[-k:], refs[-k - 1],
                           ws) == want[-k:]

    factors = []

    def whitening(g):
        factors.append(whiten(g))
        return factors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resvd.calibration, "whiten", whitening)
        state = capture_activations(model, calib, model.n_layers, ws)
    norms, output = state.reference_norms, state.output
    factors = dict(zip((key for key, _ in model.tail_entries(model.n_layers)), factors,
                       strict=True))
    assert norms == tuple(float(np.linalg.norm(y)) for y in refs)
    output = output.read(0, np.empty(output.shape))  # the spill, read back whole
    assert np.array_equal(output.view(np.uint64), refs[-1].view(np.uint64))
    for layer, h in zip(model.layers, [calib.samples] + refs[:-1]):
        for e in layer.entries:
            s, fresh = factors[f"{layer.name}/{e.name}"], whiten(gram(h))
            assert s.tobytes() == fresh.tobytes()
            h = h @ e.dense.T


def with_layer(model, i, layer):
    return SequentialModel(layers=model.layers[:i] + (layer,) + model.layers[i + 1 :])


def rebuilt(model, stored=np.copy):
    """``model`` with ``stored(a)`` in place of every array ``a`` it stores;
    by default each weight gets an array of its own, as in a model read from disk."""
    def entry(e):
        if e.factors is None:
            return MatrixEntry(name=e.name, dense=stored(e.dense))
        return MatrixEntry(name=e.name, factors=FactorPair(stored(e.factors.u_hat),
                                                           stored(e.factors.v_hat)))

    return SequentialModel(layers=tuple(
        Layer(name=layer.name, entries=tuple(map(entry, layer.entries)),
              activation=layer.activation)
        for layer in model.layers))


@pytest.mark.parametrize("nudged", [0, 2, 4])
def test_one_ulp_in_a_prefix_weight_is_scored_from_its_layer_on(nudged):
    # layerwise_error walks only the original through the leading layers the
    # compressed model stores bit for bit; one ulp in one weight ends that run,
    # and that layer and every later one, dense and identical to the original
    # or not, scores what two full walks score.
    rng = np.random.default_rng(71)
    model = make_mlp(rng, [8] * 8, activation="relu")
    calib = CalibrationSet(samples=rng.standard_normal((16, 8)))
    compressed = rebuilt(replace_tail(model, 2, 3))
    layer = compressed.layers[nudged]
    x = forward(model, calib.samples)[nudged - 1] if nudged else calib.samples

    def nudge(i, j):
        w = layer.entries[0].dense.copy()
        w[i, j] = np.nextafter(w[i, j], np.inf)
        return dense_layer(layer.name, w, layer.activation)

    # most one-ulp changes round away in the layer's sums; take one that does not
    ws = Workspace(len(x), model)
    y = layer.forward(x, ws)
    layer = next(nudge(i, j) for i, j in np.ndindex(8, 8)
                 if not np.array_equal(nudge(i, j).forward(x, ws, y), y))
    compressed = with_layer(compressed, nudged, layer)
    want = diff_buffer_errors(forward(compressed, calib.samples), forward(model, calib.samples))

    got = layerwise_error(model, compressed, calib)
    assert got == tuple(want)
    assert got[:nudged] == (0.0,) * nudged
    assert got[nudged] > 0


def test_layers_after_a_differing_layer_are_scored_though_identical():
    # Only the leading run of identical layers is skipped: a layer that stores
    # the original's weight but sits after a differing layer sees a different
    # input, so it is walked and scored like any other.
    rng = np.random.default_rng(72)
    model = make_mlp(rng, [8] * 6, activation="silu")
    calib = CalibrationSet(samples=rng.standard_normal((16, 8)))
    compressed = with_layer(rebuilt(model), 1, replace_tail(model, 4, 2).layers[1])
    want = diff_buffer_errors(forward(compressed, calib.samples), forward(model, calib.samples))

    got = layerwise_error(model, compressed, calib)
    assert got == tuple(want)
    assert got[0] == 0.0 and all(err > 0 for err in got[1:])
    assert layerwise_error(model, rebuilt(model), calib) == (0.0,) * model.n_layers


def test_a_prefix_rounded_to_f32_is_walked_by_both_models():
    # A --dtype f32 output rounds every weight, so no layer matches bit for
    # bit and the whole compressed model is walked.
    rng = np.random.default_rng(73)
    model = make_mlp(rng, [8] * 5, activation="relu")
    calib = CalibrationSet(samples=rng.standard_normal((16, 8)))
    rounded = rebuilt(replace_tail(model, 1, 3),
                      lambda a: a.astype(np.float32).astype(np.float64))
    want = diff_buffer_errors(forward(rounded, calib.samples), forward(model, calib.samples))

    got = layerwise_error(model, rounded, calib)
    assert got == tuple(want)
    assert all(err > 0 for err in got)


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


def check_scoring_peaks(activation, held):
    """Peaks of scoring a 7-layer, width-32 model whose last 6 layers are
    factored at rank 4, in outputs: ``held`` for two walks in step, one
    fewer for one walk, and nothing once a workspace has run."""
    rng = np.random.default_rng(62)
    model = make_mlp(rng, [32] * 7, activation=activation)
    compressed = replace_tail(model, 6, 4)
    calib = CalibrationSet(samples=rng.standard_normal((2048, 32)))
    size = calib.samples.nbytes
    refs = forward(model, calib.samples)

    def walk(ws):
        for _ in _walk(compressed.layers[1:], refs[0], ws):
            pass

    def in_step(ws):
        return errors_in_step(compressed.layers[1:], model.layers[1:], refs[0], ws)

    assert held < peak_arrays(lambda: layerwise_error(model, compressed, calib), size) < held + 0.3
    assert held < peak_arrays(lambda: in_step(Workspace(len(refs[0]), model)),
                              size) < held + 0.3
    assert held - 1 < peak_arrays(lambda: walk(Workspace(len(refs[0]), model)),
                                  size) < held - 0.7
    ws = Workspace(len(refs[0]), model)
    want = in_step(ws)
    assert peak_arrays(lambda: in_step(ws), size) < 0.01
    assert peak_arrays(lambda: walk(ws), size) < 0.01
    assert in_step(ws) == want


def test_scoring_holds_two_outputs_per_walk():
    # Every output goes into one of a workspace's three buffers: two walks
    # in step (layerwise_error, _squares_in_step) hold all three, plus the rank
    # scratch of the factored layers (rank 4 of width 32, an eighth of an
    # output), and one walk two of them. A workspace that has run once
    # allocates nothing more.
    check_scoring_peaks("relu", 3)


def test_silu_takes_its_sigmoid_from_the_workspace():
    # A silu layer's sigmoid needs one more output's room, which a member
    # of the workspace's scratch pair gives: a workspace that has run once
    # still allocates nothing more.
    check_scoring_peaks("silu", 4)


def test_skipping_a_shared_prefix_holds_no_extra_output():
    # The compressed walk starts from the last shared reference output, in
    # the buffer that walk wrote it to: the three-buffer bound of two walks
    # in step still holds.
    rng = np.random.default_rng(63)
    model = make_mlp(rng, [32] * 7, activation="relu")
    compressed = rebuilt(replace_tail(model, 3, 4))
    calib = CalibrationSet(samples=rng.standard_normal((2048, 32)))
    assert 3.0 < peak_arrays(lambda: layerwise_error(model, compressed, calib),
                             calib.samples.nbytes) < 3.3


def test_layerwise_error_zero_norm_layer_is_nan():
    # A dead ReLU layer (all-negative pre-activations) produces zero outputs.
    w = -np.eye(3)
    model = SequentialModel(
        layers=(dense_layer("l0", w, "relu"), dense_layer("l1", np.eye(3))),
    )
    calib = CalibrationSet(samples=np.abs(np.random.default_rng(1).standard_normal((4, 3))))
    errors = layerwise_error(model, model, calib)
    assert math.isnan(errors[0])


def test_layerwise_error_requires_same_skeleton():
    rng = np.random.default_rng(2)
    a = make_mlp(rng, [4, 4, 4])
    b = make_mlp(rng, [4, 4])
    calib = CalibrationSet(samples=rng.standard_normal((4, 4)))
    with pytest.raises(DimensionError):
        layerwise_error(a, b, calib)


def test_parameter_count_dense_and_factored():
    w = np.zeros((64, 64))
    dense = SequentialModel(layers=(dense_layer("l0", w),))
    assert parameter_count(dense) == 4096
    pair = truncate(svd(np.random.default_rng(3).standard_normal((64, 64))), 16)
    fact = SequentialModel(
        layers=(Layer(name="l0", entries=(MatrixEntry(name="w", factors=pair),)),),
    )
    assert parameter_count(fact) == (64 + 64) * 16
    assert parameter_count(fact) / parameter_count(dense) == 0.5


def test_mac_count_dense_and_factored():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((64, 64))
    dense = SequentialModel(layers=(dense_layer("l0", w),))
    assert mac_count(dense, batch=3) == 3 * 64 * 64
    pair = truncate(svd(w), 16)
    fact = SequentialModel(
        layers=(Layer(name="l0", entries=(MatrixEntry(name="w", factors=pair),)),),
    )
    assert mac_count(fact, batch=3) == 3 * 64 * 16 + 3 * 16 * 64


def test_uniform_compression_hits_ratio_within_flooring_slack():
    # All layers factored at ranks from the budget formula: total parameter
    # count lands in [(1-R_l) - slack, (1-R_l)] of the original.
    from resvd.linalg import rank_budget

    rng = np.random.default_rng(40)
    widths = [48] * 7
    model = make_mlp(rng, widths)
    ratio = 0.3
    compressed_layers = []
    for layer in model.layers:
        entries = tuple(
            compress_entry(e, rank_budget(e.rows, e.cols, ratio, 0.0).r) for e in layer.entries
        )
        compressed_layers.append(Layer(name=layer.name, entries=entries, activation=layer.activation))
    compressed = SequentialModel(layers=tuple(compressed_layers))
    got = parameter_count(compressed) / parameter_count(model)
    m = n = 48
    slack = (m + n) / (m * n)
    assert 1 - ratio - slack <= got <= 1 - ratio + 1e-12
    got_mac = mac_count(compressed, 5) / mac_count(model, 5)
    assert 1 - ratio - slack <= got_mac <= 1 - ratio + 1e-12
