"""A dense reference of the whole method, written from the paper's equations alone.

It shares no code with ``resvd``, so a fault in the pipeline cannot sit on
both sides of a comparison with it. It takes each layer as its plain
weight arrays, applied in order as ``h -> h @ W^T``, and the name of its
activation, with the calibration rows as one array, and gives back the
rows of the planner's candidate table for them. Every quantity is formed
the direct way, over every row at once:

- the rank budget of an ``m x n`` matrix at layer ratio ``R_l``:
  ``alpha = m n / (m + n)``, ``r = floor((1 - R_l) alpha)``, and the
  residual share ``r_r = round(beta alpha)`` clamped into ``[1, r - 1]``
  when ``beta > 0``, else 0, with ``r_i = r - r_r``;
- each matrix's input ``X`` by a plain forward pass of the original model,
  and its whitening ``S = chol(X^T X + 1e-6 tr(X^T X)/n I)``;
- stage 1, ``W_1 = SVD_{r_i}(W S) S^{-1}``, through ``np.linalg.solve``;
- stage 2, the rank-``r_r`` truncation of ``np.linalg.svd`` of the
  explicit residual ``W - W_1``;
- each candidate's score, the relative Frobenius error of its compressed
  model's final output against the original model's.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RIDGE_SCALE = 1e-6


def activate(name: str, h: np.ndarray) -> np.ndarray:
    if name == "identity":
        return h
    if name == "relu":
        return np.maximum(h, 0.0)
    if name == "silu":
        return h / (1.0 + np.exp(-h))
    raise ValueError(f"unknown activation {name!r}")


def budget(m: int, n: int, layer_ratio: float, beta: float) -> tuple[int, int] | None:
    """``(r_i, r_r)`` for an ``m x n`` matrix, or None when its target rank is below 1."""
    alpha = m * n / (m + n)
    r = math.floor((1.0 - layer_ratio) * alpha)
    if r < 1:
        return None
    r_r = min(max(round(beta * alpha), 1), r - 1) if beta > 0 else 0
    return r - r_r, r_r


def forward(layers, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each matrix's input, in forward order, and the model's output."""
    inputs, h = [], x
    for weights, activation in layers:
        for w in weights:
            inputs.append(h)
            h = h @ w.T
        h = activate(activation, h)
    return inputs, h


def compress(w: np.ndarray, x: np.ndarray, r_i: int, r_r: int) -> np.ndarray:
    """``W_1 + W_2``, the two stages' dense product, for the weight ``w`` fed the rows ``x``."""
    gram = x.T @ x
    n = len(gram)
    s = np.linalg.cholesky(gram + RIDGE_SCALE * np.trace(gram) / n * np.eye(n))
    u, sigma, vt = np.linalg.svd(w @ s, full_matrices=False)
    truncated = (u[:, :r_i] * sigma[:r_i]) @ vt[:r_i]
    w_1 = np.linalg.solve(s.T, truncated.T).T  # A S^{-1} = (S^{-T} A^T)^T
    if r_r == 0:
        return w_1
    u, sigma, vt = np.linalg.svd(w - w_1, full_matrices=False)
    return w_1 + (u[:, :r_r] * sigma[:r_r]) @ vt[:r_r]


def candidate_table(layers, x: np.ndarray, overall_ratio: float, beta: float,
                    step: int = 1) -> list[tuple[int, float, str, float]]:
    """``(k, R_l, status, final_error)`` for each candidate ``k`` in ascending order.

    ``k`` runs over ``step, 2 step, ..., N - step``; a ``k`` with
    ``R_l = N R_o / k >= 1``, or with a tail matrix whose target rank is
    below 1, is no candidate. A candidate with a tail matrix whose target
    rank is at least the row count is ``"failed"`` with a nan error, since
    that matrix would fit the rows up to the ridge; every other one is
    ``"ok"``.
    """
    n_layers = len(layers)
    inputs, y = forward(layers, x)
    rows = []
    for k in range(step, n_layers - step + 1, step):
        if Fraction(overall_ratio) * n_layers / k >= 1:
            continue
        ratio = n_layers * overall_ratio / k
        first = sum(len(weights) for weights, _ in layers[: n_layers - k])
        shapes = [w.shape for weights, _ in layers for w in weights][first:]
        budgets = [budget(m, n, ratio, beta) for m, n in shapes]
        if None in budgets:
            continue
        if any(len(x) <= r_i + r_r for r_i, r_r in budgets):
            rows.append((k, ratio, "failed", math.nan))
            continue
        compressed, at = [], 0
        for weights, activation in layers:
            compressed.append(([w if at + j < first else
                                compress(w, inputs[at + j], *budgets[at + j - first])
                                for j, w in enumerate(weights)], activation))
            at += len(weights)
        _, y_hat = forward(compressed, x)
        rows.append((k, ratio, "ok", float(np.linalg.norm(y_hat - y) / np.linalg.norm(y))))
    return rows
