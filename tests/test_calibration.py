"""The calibration pass, calibration sets and whitening."""

import numpy as np
import pytest

import resvd.calibration
from resvd.calibration import (
    CalibrationSet,
    capture_activations,
    gram,
    whiten,
)
from resvd.containers import load_calibration, save_calibration
from resvd.errors import DimensionError, FormatError, NumericalError, SingularWhiteningError
from resvd.model import Layer, MatrixEntry, SequentialModel, Workspace, forward


def dense_layer(name, w, activation="identity"):
    return Layer(name=name, entries=(MatrixEntry(name="w", dense=w),), activation=activation)


def whitened_inputs(model, calib):
    """The pass over the whole model: each matrix's whitening factor, keyed, as a wrapper of
    :func:`whiten` sees the pass make it, the norms, the output read back whole from the file
    the pass wrote it to."""
    factors = []

    def whitening(g):
        factors.append(whiten(g))
        return factors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resvd.calibration, "whiten", whitening)
        state = capture_activations(model, calib, model.n_layers,
                                    Workspace(calib.num_samples, model))
    output = state.output.read(0, np.empty(state.output.shape))
    keys = [key for key, _ in model.tail_entries(model.n_layers)]
    return dict(zip(keys, factors, strict=True)), state.reference_norms, output


def assert_whitened_from(s, x):
    """``s`` is, bit for bit, the factor :func:`whiten` returns for ``x``."""
    assert s.tobytes() == whiten(gram(x)).tobytes()


def assert_factors(s, g, ridge=None):
    """``s`` is a Cholesky factor of the Gram matrix ``g`` plus ``ridge``, by default
    :func:`whiten`'s."""
    n = g.shape[0]
    if ridge is None:
        ridge = resvd.calibration.DEFAULT_RIDGE_SCALE * np.trace(g) / n
    np.testing.assert_allclose(s @ s.T, g + ridge * np.eye(n),
                               rtol=0.0, atol=1e-12 * np.abs(g).max())


def test_first_layer_sees_raw_input():
    model = SequentialModel(layers=(dense_layer("l0", np.eye(3)),))
    x = np.arange(12.0).reshape(4, 3)
    calib = CalibrationSet(samples=x)
    factors, norms, output = whitened_inputs(model, calib)
    assert_whitened_from(factors["l0/w"], x)
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
    factors, _, _ = whitened_inputs(model, CalibrationSet(samples=x))
    # naive recomputation of the ReLU output feeding layer 1
    expected = np.maximum(x @ w1.T, 0.0)
    assert_whitened_from(factors["l1/w"], expected)


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


def test_capture_names_the_layer_whose_output_norm_overflows():
    # l1's outputs are finite, but the sum of their squares is not; scored
    # against that norm, every error would read 0. The pass checks its norms.
    model = SequentialModel(
        layers=(dense_layer("l0", np.eye(2)), dense_layer("l1", np.full((2, 2), 1e200))),
    )
    with pytest.raises(NumericalError, match=r"^l1: output norm overflows float64 on the "
                                             r"calibration set$"):
        whitened_inputs(model, CalibrationSet(samples=np.ones((3, 2))))


def test_a_norm_overflow_comes_after_every_layer_fault():
    # l0's norm overflows and l1 outputs all zeros: the pass names l1, so a
    # fault of any layer wins over a norm, as the norms are checked last.
    model = SequentialModel(layers=(dense_layer("l0", np.full((2, 2), 1e200)),
                                    dense_layer("l1", np.zeros((2, 2))),
                                    dense_layer("l2", np.eye(2))))
    calib = CalibrationSet(samples=np.ones((3, 2)))
    with pytest.raises(NumericalError, match=r"^l1: output is all zeros"):
        capture_activations(model, calib, 1, Workspace(calib.num_samples, model))


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
    factors, norms, output = whitened_inputs(model, CalibrationSet(samples=x))
    assert list(factors) == ["mlp/up", "mlp/down", "out/w"]
    # the second entry sees the intermediate product, pre-activation
    product = x @ layer.entries[0].dense.T
    assert (product < 0).any()
    assert_whitened_from(factors["mlp/down"], product)
    # the output and norms are the model's; the calibration rows are never written
    outputs = forward(model, x)
    np.testing.assert_array_equal(output, outputs[-1])
    assert norms == tuple(float(np.linalg.norm(y)) for y in outputs)
    np.testing.assert_array_equal(x, samples)


def test_capture_whitens_the_tail_only(monkeypatch):
    # Prefix matrices run but are never whitened, and each tail matrix's
    # factor call gets its own dense weight and key.
    rng = np.random.default_rng(4)
    model = SequentialModel(
        layers=tuple(dense_layer(f"l{i}", rng.standard_normal((4, 4)), "relu")
                     for i in range(4)),
    )
    calib = CalibrationSet(samples=rng.standard_normal((10, 4)))
    calls, weights = [], {}

    def factor(w, s, key):
        calls.append(key)
        weights[key] = w
        return real(w, s, key)

    real = resvd.calibration.whitened_weight
    monkeypatch.setattr(resvd.calibration, "whitened_weight", factor)
    state = capture_activations(model, calib, 2, Workspace(calib.num_samples, model))
    norms = state.reference_norms
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
    # Orthonormal rows: X^T X = I, so S is I and S S^T is X^T X.
    s = whiten(gram(np.eye(4)), ridge=0.0)
    np.testing.assert_allclose(s, np.eye(4), atol=1e-12)
    assert_factors(s, np.eye(4), ridge=0.0)


def test_whiten_hand_cholesky():
    # X^T X + I = diag(5, 1) whose Cholesky factor is diag(sqrt5, 1).
    x = np.array([[2.0, 0.0], [0.0, 0.0]])
    s = whiten(gram(x), ridge=1.0)
    np.testing.assert_allclose(s, np.diag([np.sqrt(5.0), 1.0]), atol=1e-12)


def test_whiten_rank_deficient_raises():
    x = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularWhiteningError):
        whiten(gram(x), ridge=0.0)


def test_whiten_default_ridge_rescues_rank_deficiency():
    x = np.array([[1.0, 0.0], [2.0, 0.0]])
    s = whiten(gram(x))  # default ridge = 1e-6 * trace/n
    assert s.dtype == np.float64
    assert_factors(s, gram(x))


def test_whitening_identity_holds_for_random_contexts():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        x = rng.standard_normal((n + 3, n))
        s = whiten(gram(x), ridge=None)
        assert_factors(s, gram(x))
        assert np.all(np.diag(s) > 0)
        # lower-triangular
        assert np.allclose(s, np.tril(s))


def test_whitening_scales_linearly_with_input():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 4))
    c = 3.5
    a = whiten(gram(x), ridge=0.0)
    b = whiten(gram(c * x), ridge=0.0)
    np.testing.assert_allclose(b, c * a, rtol=1e-10)


def test_whitening_deterministic():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((12, 5))
    a = whiten(gram(x.copy()))
    b = whiten(gram(x.copy()))
    assert a.tobytes() == b.tobytes()


def test_whiten_rejects_negative_ridge_and_bad_input():
    with pytest.raises(ValueError):
        whiten(gram(np.eye(2)), ridge=-1.0)
    with pytest.raises(NumericalError):
        whiten(gram(np.array([[np.inf, 0.0]])))
    with pytest.raises(SingularWhiteningError, match="overflows float64"):
        whiten(gram(np.array([[1e308, 1.0], [2.0, 3.0]])))


def test_whiten_rejects_an_overflowing_gram_trace():
    # Every Gram entry is finite, but the trace the default ridge scales with
    # is not; numpy must not warn on the way.
    with pytest.raises(SingularWhiteningError, match="overflows float64"):
        whiten(gram(np.diag([1.2e154, 1.2e154])))


def test_whitening_contexts_cover_every_matrix():
    rng = np.random.default_rng(15)
    model = SequentialModel(
        layers=(
            dense_layer("l0", rng.standard_normal((6, 4)), "relu"),
            dense_layer("l1", rng.standard_normal((3, 6))),
        ),
    )
    calib = CalibrationSet(samples=rng.standard_normal((20, 4)))
    factors, _, _ = whitened_inputs(model, calib)
    assert set(factors) == {"l0/w", "l1/w"}
    hidden = np.maximum(calib.samples @ model.layers[0].entries[0].dense.T, 0.0)
    assert_factors(factors["l0/w"], gram(calib.samples))
    assert_factors(factors["l1/w"], gram(hidden))


def test_subsample_is_seeded_and_stable():
    rng = np.random.default_rng(5)
    calib = CalibrationSet(samples=rng.standard_normal((50, 3)))
    a = calib.subsample(10, seed=42)
    b = calib.subsample(10, seed=42)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.num_samples == 10
    c = calib.subsample(100, seed=1)
    assert c.num_samples == 50


def identity_model(width):
    return SequentialModel(layers=(dense_layer("l0", np.eye(width)),))


def blocks_of(calib, rows_per_block):
    """Every block of ``calib`` in a workspace of ``rows_per_block`` rows, copied out."""
    ws = Workspace(rows_per_block, identity_model(calib.input_dim))
    return [calib.block(slice(start, min(start + rows_per_block, calib.num_samples)), ws).copy()
            for start in range(0, calib.num_samples, rows_per_block)]


@pytest.mark.parametrize("chunk_bytes", [8 * 7, 8 * 7 * 5, resvd.calibration.READ_CHUNK_BYTES])
def test_file_backed_blocks_equal_in_memory_blocks(tmp_path, monkeypatch, chunk_bytes):
    # The same rows, whole and subsampled (dense, sparse, and a subsample of a
    # subsample), come out bit-identical block by block whether the set holds
    # them or reads them from its file, whatever chunks a gather reads in.
    monkeypatch.setattr(resvd.calibration, "READ_CHUNK_BYTES", chunk_bytes)
    rows = np.random.default_rng(41).standard_normal((300, 7))
    rows[5, 2] = -0.0
    memory = CalibrationSet(samples=rows)
    save_calibration(memory, tmp_path / "c.bin")
    file = load_calibration(tmp_path / "c.bin")
    pairs = [(memory, file)]
    for n, seed in ((225, 1), (17, 2), (299, 3)):
        pairs.append((memory.subsample(n, seed), file.subsample(n, seed)))
    pairs.append((pairs[1][0].subsample(40, 4), pairs[1][1].subsample(40, 4)))
    for a, b in pairs:
        assert (a.num_samples, a.input_dim) == (b.num_samples, b.input_dim)
        assert a.samples.tobytes() == b.samples.tobytes()
        for per_block in (1, 13, a.num_samples):
            got, want = blocks_of(b, per_block), blocks_of(a, per_block)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert np.concatenate(got).tobytes() == a.samples.tobytes()


def test_a_subsample_is_an_index_of_its_parents_rows():
    rows = np.random.default_rng(42).standard_normal((50, 3))
    sub = CalibrationSet(samples=rows).subsample(10, seed=42)
    idx = np.sort(np.random.default_rng(42).choice(50, size=10, replace=False))
    assert sub.samples.tobytes() == rows[idx].tobytes()
    again = sub.subsample(4, seed=1)
    pick = np.sort(np.random.default_rng(1).choice(10, size=4, replace=False))
    assert again.samples.tobytes() == rows[idx[pick]].tobytes()


def test_file_backed_set_reads_from_the_descriptor_opened_at_load(tmp_path):
    # A file replaced by rename still serves the rows that were checked.
    rows = np.random.default_rng(43).standard_normal((20, 4))
    save_calibration(CalibrationSet(samples=rows), tmp_path / "c.bin")
    calib = load_calibration(tmp_path / "c.bin")
    save_calibration(CalibrationSet(samples=rows + 1.0), tmp_path / "new.bin")
    (tmp_path / "new.bin").replace(tmp_path / "c.bin")
    assert calib.samples.tobytes() == rows.tobytes()
    (tmp_path / "c.bin").unlink()
    assert calib.subsample(5, seed=0).samples.tobytes() == rows[
        np.sort(np.random.default_rng(0).choice(20, size=5, replace=False))].tobytes()


@pytest.mark.parametrize("damage, message", [
    ("truncate", r"c\.bin: ends before row 12; it was truncated while in use$"),
    ("nan", r"c\.bin: row 9 holds a non-finite value$"),
])
def test_a_block_damaged_after_load_is_a_format_error(tmp_path, damage, message):
    rows = np.random.default_rng(44).standard_normal((12, 4))
    save_calibration(CalibrationSet(samples=rows), tmp_path / "c.bin")
    calib = load_calibration(tmp_path / "c.bin")
    raw = bytearray((tmp_path / "c.bin").read_bytes())
    if damage == "truncate":
        del raw[-5:]
    else:
        raw[-8 * 4 * 4 : -8 * 4 * 4 + 8] = np.float64(np.nan).tobytes()  # row 9 of 12
    with open(tmp_path / "c.bin", "r+b") as fh:  # in place, as the docs forbid
        fh.truncate(0)
        fh.write(raw)
    ws = Workspace(12, identity_model(4))
    assert calib.block(slice(0, 6), ws).tobytes() == rows[:6].tobytes()
    with pytest.raises(FormatError, match=message):
        calib.block(slice(6, 12), ws)


def test_a_loaded_file_is_closed_once_no_set_refers_to_it(tmp_path):
    save_calibration(CalibrationSet(samples=np.ones((3, 2))), tmp_path / "c.bin")
    calib = load_calibration(tmp_path / "c.bin")
    sub = calib.subsample(2, seed=0)
    close = calib._file.close
    del calib
    assert close.alive  # the subsample still reads through it
    del sub
    assert not close.alive
