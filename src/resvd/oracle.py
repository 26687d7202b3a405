"""Independent checks of the claims the compressor relies on.

Everything here recomputes from first principles with raw numpy so the
checks cannot inherit a bug from the production code paths: two-stage
truncation with residual compensation never does worse than direct
whitened truncation at the same total rank, the rank-r truncation splits
exactly into a rank-r_i part plus a low-rank remainder, and the parameter
and MAC ratios of a uniform compressed model land inside the flooring
slack around the requested reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OracleReport:
    suite: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    failures: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def _budget(m: int, n: int, layer_ratio: float, beta: float) -> tuple[int, int, int]:
    """(r, r_i, r_r) by the same arithmetic the compressor uses, restated."""
    alpha = (m * n) / (m + n)
    r = math.floor((1.0 - layer_ratio) * alpha)
    if r < 1:
        raise ValueError(f"no rank budget for {m}x{n} at ratio {layer_ratio}")
    r_r = min(max(round(alpha * beta), 1), r - 1) if beta > 0.0 else 0
    return r, r - r_r, r_r


def _svd(a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd(a, full_matrices=False)``, retried on ``a``'s transpose if it fails.

    The transpose has the same singular values with its factors swapped, so
    a trial whose LAPACK call does not converge is still run, not skipped.
    """
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        if not compute_uv:
            return np.linalg.svd(a.T, compute_uv=False)
        u, sigma, vt = np.linalg.svd(a.T, full_matrices=False)
        return vt.T, sigma, u.T


def _truncated(u, sigma, vt, r):
    return (u[:, :r] * sigma[:r]) @ vt[:r]


def _two_stage(w, u, sigma, vt, s_inv, r_i: int, r_r: int) -> np.ndarray:
    """Whitened truncation at rank ``r_i`` plus the best rank-``r_r`` fit of its residual."""
    stage1 = _truncated(u, sigma, vt, r_i) @ s_inv
    if r_r == 0:
        return stage1
    ru, rsig, rvt = _svd(w - stage1)
    return stage1 + _truncated(ru, rsig, rvt, r_r)


def _spd_whitener(rng, n: int):
    """Random lower-triangular S with bounded condition, plus its inverse."""
    x = rng.standard_normal((4 * n, n))
    gram = x.T @ x + 0.5 * np.eye(n)
    s = np.linalg.cholesky(gram)
    return s, np.linalg.inv(s)


def check_theorem3(
    trials: int = 100,
    seed: int = 0,
    dims: tuple[int, int] = (8, 64),
    ratios: tuple[float, ...] = (0.2, 0.3, 0.5),
    beta: float = 0.05,
    tolerance: float = 1e-9,
) -> OracleReport:
    """Compensated error never exceeds direct truncation error at equal rank.

    Every trial draws a fresh (W, S) pair, splits the rank budget the way
    the compressor would, and compares Frobenius errors computed with raw
    numpy SVDs. Every tenth trial uses S = I, and each trial also confirms
    the beta = 0 degenerate split reproduces the direct error exactly.
    """
    rng = np.random.default_rng(seed)
    lo, hi = dims
    max_violation = 0.0
    failures: list[str] = []
    executed = 0
    for t in range(trials):
        m = int(rng.integers(lo, hi + 1))
        n = int(rng.integers(lo, hi + 1))
        ratio = ratios[t % len(ratios)]
        w = rng.standard_normal((m, n))
        if t % 10 == 0:
            s = np.eye(n)
            s_inv = np.eye(n)
        else:
            s, s_inv = _spd_whitener(rng, n)
        try:
            r, r_i, r_r = _budget(m, n, ratio, beta)
        except ValueError:
            continue
        executed += 1

        u, sigma, vt = _svd(w @ s)
        direct = np.linalg.norm(w - _truncated(u, sigma, vt, r) @ s_inv)
        compensated = np.linalg.norm(w - _two_stage(w, u, sigma, vt, s_inv, r_i, r_r))

        violation = compensated - direct
        max_violation = max(max_violation, violation)
        if violation > tolerance:
            failures.append(
                f"trial {t} (seed {seed}): {m}x{n} ratio {ratio}: "
                f"compensated {compensated:.12g} > direct {direct:.12g}"
            )

        _, r0_i, r0_r = _budget(m, n, ratio, 0.0)
        degenerate = np.linalg.norm(w - _two_stage(w, u, sigma, vt, s_inv, r0_i, r0_r))
        drift = abs(degenerate - direct)
        max_violation = max(max_violation, drift)
        if drift > tolerance:
            failures.append(
                f"trial {t} (seed {seed}): {m}x{n}: beta=0 split drifted by {drift:.3g}"
            )

    return OracleReport(
        suite="residual-compensation-superiority",
        trials=executed,
        max_violation=max_violation,
        tolerance=tolerance,
        passed=executed > 0 and not failures,
        failures=tuple(failures),
    )


def _delta_deviation(w: np.ndarray, s: np.ndarray, r_i: int, r: int) -> float:
    """Max deviation of the truncation-split identity on one (W, S) pair.

    The rank-r whitened truncation must equal the rank-r_i one plus a
    remainder of rank at most r - r_i. Returns the larger of the
    elementwise identity deviation and the remainder's first singular
    value past index r - r_i (0 means the identity is exact).
    """
    if not 1 <= r_i <= r <= min(w.shape):
        raise ValueError(f"need 1 <= r_i <= r <= {min(w.shape)}, got r_i={r_i}, r={r}")
    s_inv = np.linalg.inv(s)
    u, sigma, vt = _svd(w @ s)
    full = _truncated(u, sigma, vt, r) @ s_inv
    head = _truncated(u, sigma, vt, r_i) @ s_inv
    delta = (_truncated(u, sigma, vt, r) - _truncated(u, sigma, vt, r_i)) @ s_inv

    identity_dev = float(np.max(np.abs(full - (head + delta))))
    tail = _svd(delta, compute_uv=False)
    rank_dev = float(tail[r - r_i]) if r - r_i < tail.size else 0.0
    return max(identity_dev, rank_dev)


def check_delta_decomposition(
    w: np.ndarray,
    s: np.ndarray,
    r_i: int,
    r: int,
    tolerance: float = 1e-9,
) -> OracleReport:
    """Single-case report on the truncation-split identity."""
    dev = _delta_deviation(w, s, r_i, r)
    failures = ()
    if dev > tolerance:
        failures = (
            f"{w.shape[0]}x{w.shape[1]} r_i={r_i} r={r}: deviation {dev:.3g}",
        )
    return OracleReport(
        suite="truncation-split-identity",
        trials=1,
        max_violation=dev,
        tolerance=tolerance,
        passed=not failures,
        failures=failures,
    )


def delta_suite(trials: int = 100, seed: int = 0, tolerance: float = 1e-9) -> OracleReport:
    """Randomized sweep of the truncation-split identity."""
    rng = np.random.default_rng(seed)
    max_violation = 0.0
    failures: list[str] = []
    for t in range(trials):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(4, 33))
        w = rng.standard_normal((m, n))
        s, _ = _spd_whitener(rng, n)
        r = int(rng.integers(2, min(m, n) + 1))
        r_i = int(rng.integers(1, r + 1))
        dev = _delta_deviation(w, s, r_i, r)
        max_violation = max(max_violation, dev)
        if dev > tolerance:
            failures.append(f"trial {t}: {m}x{n} r_i={r_i} r={r}: deviation {dev:.3g}")
    return OracleReport(
        suite="truncation-split-identity",
        trials=trials,
        max_violation=max_violation,
        tolerance=tolerance,
        passed=not failures,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class MacCheckResult:
    param_ratio: float
    mac_ratio: float
    lower: float
    upper: float
    passed: bool


def check_mac_formula(
    model_dims: tuple[int, int],
    overall_ratio: float,
    k: int,
    batch: int = 32,
) -> MacCheckResult:
    """Retained parameter and MAC fractions for a uniform square model.

    Pure arithmetic: no model objects. For width w and N layers with the
    last k factored at R_l = N*R_o/k, both retained fractions must land in
    [1 - R_o - (m+n)/(m*n), 1 - R_o].
    """
    width, n_layers = model_dims
    if width < 2 or n_layers < 1 or not 1 <= k <= n_layers:
        raise ValueError(f"bad uniform model spec: width={width}, N={n_layers}, k={k}")
    if not 0.0 <= overall_ratio < 1.0:
        raise ValueError(f"overall_ratio must be in [0, 1), got {overall_ratio}")
    m = n = width
    layer_ratio = (n_layers * overall_ratio) / k
    if layer_ratio >= 1.0:
        raise ValueError(f"k={k} cannot absorb overall_ratio={overall_ratio}")
    alpha = (m * n) / (m + n)
    r = math.floor((1.0 - layer_ratio) * alpha)
    if r < 1:
        raise ValueError(f"rank budget floors to zero at layer ratio {layer_ratio}")

    dense_params = n_layers * m * n
    kept_params = (n_layers - k) * m * n + k * (m + n) * r
    dense_macs = n_layers * batch * m * n
    kept_macs = (n_layers - k) * batch * m * n + k * batch * (n * r + r * m)

    param_ratio = kept_params / dense_params
    mac_ratio = kept_macs / dense_macs
    lower = 1.0 - overall_ratio - (m + n) / (m * n)
    upper = 1.0 - overall_ratio
    eps = 1e-12
    passed = all(lower - eps <= v <= upper + eps for v in (param_ratio, mac_ratio))
    return MacCheckResult(
        param_ratio=param_ratio,
        mac_ratio=mac_ratio,
        lower=lower,
        upper=upper,
        passed=passed,
    )


def mac_suite(trials: int = 100, seed: int = 0) -> OracleReport:
    """Randomized sweep of the cost-accounting bounds."""
    rng = np.random.default_rng(seed)
    max_violation = 0.0
    failures: list[str] = []
    done = 0
    while done < trials:
        width = int(rng.integers(8, 97))
        n_layers = int(rng.integers(2, 13))
        overall = float(rng.uniform(0.05, 0.8))
        k = int(rng.integers(1, n_layers + 1))
        try:
            res = check_mac_formula((width, n_layers), overall, k)
        except ValueError:
            continue  # infeasible draw, redraw
        done += 1
        for label, v in (("param", res.param_ratio), ("mac", res.mac_ratio)):
            violation = max(res.lower - v, v - res.upper, 0.0)
            max_violation = max(max_violation, violation)
            if violation > 1e-12:
                failures.append(
                    f"width={width} N={n_layers} R_o={overall:.4f} k={k}: "
                    f"{label} ratio {v:.6f} outside [{res.lower:.6f}, {res.upper:.6f}]"
                )
    return OracleReport(
        suite="cost-accounting-bounds",
        trials=trials,
        max_violation=max_violation,
        tolerance=1e-12,
        passed=not failures,
        failures=tuple(failures),
    )


def run_all(trials: int = 100, seed: int = 0) -> list[OracleReport]:
    """The three suites the verify command reports on."""
    return [
        check_theorem3(trials=trials, seed=seed),
        delta_suite(trials=trials, seed=seed),
        mac_suite(trials=trials, seed=seed),
    ]
