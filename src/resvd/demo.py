"""Deterministic demo workload.

Weights are built as Q1 diag(sigma) Q2^T with a slowly decaying spectrum
(sigma_j proportional to 1/sqrt(j)), rescaled so activations keep
roughly unit variance through the relu stack. Everything derives from
one integer seed, so two runs with the same seed produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .calibration import CalibrationSet
from .containers import save_calibration, save_model
from .model import Layer, MatrixEntry, SequentialModel, Workspace, _walk

DEMO_LAYERS = 8
DEMO_WIDTH = 64
DEMO_SAMPLES = 256
DEMO_SEED = 7


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # fix the QR sign ambiguity so the factor is unique
    return q * np.sign(np.diag(r))[np.newaxis, :]


def _weight(rng, width: int, gain: float) -> np.ndarray:
    sigma = 1.0 / np.sqrt(np.arange(1, width + 1, dtype=np.float64))
    sigma *= gain / np.sqrt(np.mean(sigma**2))
    q1 = _orthogonal(rng, width)
    q2 = _orthogonal(rng, width)
    return (q1 * sigma[np.newaxis, :]) @ q2.T


def demo_model(n_layers: int = DEMO_LAYERS, width: int = DEMO_WIDTH,
               seed: int = DEMO_SEED) -> SequentialModel:
    """Relu stack with an identity head, spectra decaying like 1/sqrt(j)."""
    if n_layers < 2 or width < 4:
        raise ValueError(f"demo needs n_layers >= 2 and width >= 4, "
                         f"got {n_layers}, {width}")
    rng = np.random.default_rng([seed, 0])
    layers = []
    for i in range(n_layers):
        last = i == n_layers - 1
        # relu zeroes about half the signal; sqrt(2) restores its scale
        gain = 1.0 if last else np.sqrt(2.0)
        w = _weight(rng, width, gain)
        layers.append(
            Layer(
                name=f"layer{i}",
                entries=(MatrixEntry(name="w", dense=w),),
                activation="identity" if last else "relu",
            )
        )
    meta = {"generator": "demo", "seed": seed, "n_layers": n_layers, "width": width}
    return SequentialModel(layers=tuple(layers), meta=meta)


def demo_calibration(n_samples: int = DEMO_SAMPLES, width: int = DEMO_WIDTH,
                     seed: int = DEMO_SEED) -> CalibrationSet:
    rng = np.random.default_rng([seed, 1])
    return CalibrationSet(samples=rng.standard_normal((n_samples, width)))


def generate(out_dir: str | Path, n_layers: int = DEMO_LAYERS, width: int = DEMO_WIDTH,
             samples: int = DEMO_SAMPLES, seed: int = DEMO_SEED) -> dict:
    """Write a loadable model dir with calib.bin and checksum.json inside.

    The checksum covers the model's output on the calibration set, which
    pins both the weights and the sample draw at once. It is fed one
    :class:`~resvd.model.Workspace` block of that output at a time; the
    blocks are row-major slices of it in order, so the digest is that of
    the whole output's bytes, and no full-size output is held.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    model = demo_model(n_layers=n_layers, width=width, seed=seed)
    calib = demo_calibration(n_samples=samples, width=width, seed=seed)
    save_model(model, root)
    save_calibration(calib, root / "calib.bin")
    digest = hashlib.sha256()
    ws = Workspace(samples, model)
    for rows in ws.blocks:
        *_, y = _walk(model.layers, calib.block(rows, ws), ws)
        digest.update(y)
    doc = {
        "format": "resvd-demo",
        "config": {"n_layers": n_layers, "width": width,
                   "samples": samples, "seed": seed},
        "output_sha256": digest.hexdigest(),
    }
    (root / "checksum.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
