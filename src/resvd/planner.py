"""Tail-layer compression planning.

Only the last ``k`` of ``N`` layers are compressed; the layer ratio
``R_l = N*R_o/k`` keeps the model-wide parameter reduction at ``R_o``.
Each candidate ``k`` is scored by compressing a trial copy and measuring the
final layer's relative output error on the calibration set; the candidate
with the lowest error wins, ties going to the smaller ``k``. Only that error
is computed per candidate: the per-layer errors ``errors.csv`` reports are
computed once, for the winner.

What does not depend on ``k`` is computed once per (model, calibration)
pair by :func:`calibrate`: one activation capture, each layer's reference
output and its norm, and one :class:`~resvd.compensation.WhitenedWeight`
(whitening, ``svd(W S)``, ``P = V^T S^{-1}`` and a Gram matrix of ``P``) per
matrix of the largest tail any candidate compresses; prefix matrices are
never whitened. A candidate only slices those arrays, runs the residual
stage's small eigendecomposition for its own ``r_i``, and runs forward
through its ``k`` tail layers from the captured input of layer ``N-k``; the
untouched prefix layers score exactly zero. The plan keeps the winning trial
model and its per-layer errors, so ``compress`` writes them without rebuilding either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .calibration import CalibrationSet, capture_activations, whitening_contexts
from .compensation import WhitenedWeight, compress_matrix, whitened_weight
from .errors import CompressionError, InfeasibleBudgetError, InfeasiblePlanError, NumericalError
from .linalg import rank_budget
from .model import (
    Layer,
    MatrixEntry,
    SequentialModel,
    check_finite,
    final_layer_error,
    output_norms,
    tail_errors,
)
# Not called here; perfbench/tracer.py wraps it by name (ROADMAP item 1).
from .model import layerwise_error  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction

LayerShapes = list[list[tuple[int, int]]]


@dataclass(frozen=True)
class PlannerConfig:
    overall_ratio: float
    step: int = 1
    beta: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.overall_ratio < 1.0:
            raise ValueError(f"overall_ratio must be in (0, 1), got {self.overall_ratio!r}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta!r}")


@dataclass(frozen=True)
class CandidateResult:
    k: int
    layer_ratio: float
    final_error: float  # nan when the trial failed
    status: str = "ok"  # "ok" | "failed"
    reason: str = ""


@dataclass(frozen=True)
class CompressionPlan:
    k: int
    layer_ratio: float
    candidate_table: tuple[CandidateResult, ...]
    chosen_error: float
    n_layers: int
    overall_ratio: float
    beta: float
    seed: int
    # The winning trial and its per-layer errors, held in memory for
    # ``compress``; plan files never store them. Only the winner's
    # per-layer errors are computed; every other candidate scores its
    # final layer alone.
    compressed: SequentialModel | None = field(default=None, compare=False, repr=False)
    layer_errors: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def layer_ratio_exact(self) -> Fraction:
        """R_l as an exact rational, so k * R_l == N * R_o identically."""
        from fractions import Fraction  # only callers that want it pay for the import

        return Fraction(self.overall_ratio) * self.n_layers / self.k


def _layer_shapes(model: SequentialModel) -> LayerShapes:
    return [[(e.rows, e.cols) for e in layer.entries] for layer in model.layers]


def enumerate_candidates(
    n_layers: int,
    cfg: PlannerConfig,
    layer_shapes: LayerShapes | None = None,
) -> list[tuple[int, float]]:
    """Valid (k, R_l) pairs in ascending k.

    Candidates run over k in {s, 2s, ..., N-s} with R_l = N*R_o/k < 1
    (checked exactly, in integers). When ``layer_shapes`` is given,
    candidates whose tail layers cannot afford even rank 1 are dropped too.

    Raises:
        InfeasiblePlanError: when no candidate survives.
    """
    if n_layers < 2:
        raise InfeasiblePlanError(f"need at least 2 layers to plan, got {n_layers}")
    # R_o = num/den exactly, so R_l = N*R_o/k < 1 is N*num < k*den in integers
    num, den = cfg.overall_ratio.as_integer_ratio()
    out: list[tuple[int, float]] = []
    for k in range(cfg.step, n_layers - cfg.step + 1, cfg.step):
        if not n_layers * num < k * den:  # R_l >= 1: the tail cannot absorb the whole budget
            continue
        ratio = (n_layers * cfg.overall_ratio) / k
        if layer_shapes is not None and not _budget_feasible(layer_shapes, k, ratio, cfg.beta):
            continue
        out.append((k, ratio))
    if not out:
        raise InfeasiblePlanError(
            f"no feasible tail-layer count for N={n_layers}, "
            f"overall_ratio={cfg.overall_ratio}, step={cfg.step}"
        )
    return out


def _budget_feasible(shapes: LayerShapes, k: int, ratio: float, beta: float) -> bool:
    for layer in shapes[len(shapes) - k :]:
        for m, n in layer:
            try:
                rank_budget(m, n, ratio, beta)
            except InfeasibleBudgetError:
                return False
    return True


def compress_tail_layers(
    state: CalibratedModel, k: int, layer_ratio: float, beta: float
) -> SequentialModel:
    """New model with the last ``k`` layers factored from ``state``; the prefix is shared as-is.

    Raises:
        ValueError: when ``k`` is outside ``[1, state.tail]``, the tail
            :func:`calibrate` whitened.
    """
    model = state.model
    if not 1 <= k <= state.tail:
        raise ValueError(f"k={k} outside [1, {state.tail}]: calibrate whitened only the "
                         f"last {state.tail} of {model.n_layers} layers")
    layers = list(model.layers[: model.n_layers - k])
    for layer in model.layers[model.n_layers - k :]:
        entries = []
        for e in layer.entries:
            key = f"{layer.name}/{e.name}"
            pair = compress_matrix(state.whitened[key], layer_ratio, beta, name=key)
            entries.append(MatrixEntry(name=e.name, factors=pair))
        layers.append(Layer(name=layer.name, entries=tuple(entries), activation=layer.activation))
    return SequentialModel(layers=tuple(layers), meta=dict(model.meta))


@dataclass(frozen=True, eq=False)
class CalibratedModel:
    """The part of every trial that does not depend on ``k``; see :func:`calibrate`.

    ``whitened`` holds a :class:`~resvd.compensation.WhitenedWeight` for each
    matrix of the tail :func:`calibrate` was given, keyed ``"<layer>/<matrix>"``.
    ``activations[i]`` is what layer ``i`` receives on the calibration set,
    so ``activations[i + 1]`` is what it outputs (``N + 1`` arrays in all),
    with Frobenius norm ``reference_norms[i]``.
    """

    model: SequentialModel
    whitened: dict[str, WhitenedWeight]
    activations: tuple[np.ndarray, ...]
    reference_norms: tuple[float, ...]

    @property
    def tail(self) -> int:
        """How many tail layers ``whitened`` covers."""
        return sum(f"{layer.name}/{layer.entries[0].name}" in self.whitened
                   for layer in self.model.layers)

    def layer_errors(self, trial: SequentialModel, k: int) -> tuple[float, ...]:
        """Per-layer relative errors of a trial that factored only the last ``k`` layers.

        Equal to ``layerwise_error(model, trial, calib)`` by construction: the
        tail is scored by :func:`~resvd.model.tail_errors`, whose walk and
        scoring loop that function shares, and the trial shares the prefix
        layers, whose outputs are the reference itself and so score exactly
        0.0 (:func:`calibrate` rejects a zero reference norm).
        """
        split = self.model.n_layers - k
        tail = tail_errors(trial, k, self.activations[split],
                           self.activations[split + 1 :], self.reference_norms[split:])
        return (0.0,) * split + tuple(tail)

    def final_error(self, trial: SequentialModel, k: int) -> float:
        """The last entry of :meth:`layer_errors`, bit for bit; no other layer is scored."""
        split = self.model.n_layers - k
        return final_layer_error(trial, k, self.activations[split],
                                 self.activations[-1], self.reference_norms[-1])


def calibrate(model: SequentialModel, calib: CalibrationSet, k: int) -> CalibratedModel:
    """The state every trial of at most ``k`` tail layers shares, each part computed once.

    One capture pass gives every matrix's input and, since a layer's output
    is the captured input of the next one and the pass returns the last
    layer's output, every reference output: each layer runs once. Only the
    matrices of the last ``k`` layers are whitened, each into the
    :class:`~resvd.compensation.WhitenedWeight` that trials only truncate.

    Raises:
        ValueError: when ``k`` is outside ``[1, N]``.
        CompressionError: naming the first matrix of the last ``k`` layers
            that is already factored, before any work is done.
        NumericalError: naming the first layer whose output (or its norm)
            overflows float64 or is all zeros (the layers have no bias, so every
            later output is zero and no candidate's error is defined), or the
            first tail matrix that cannot be whitened or whose whitened SVD fails.
    """
    if not 1 <= k <= model.n_layers:
        raise ValueError(f"k={k} outside [1, {model.n_layers}]")
    tail = [(f"{layer.name}/{e.name}", e)
            for layer in model.layers[model.n_layers - k :] for e in layer.entries]
    for key, e in tail:
        if e.is_factored:
            raise CompressionError(f"entry {key} is already factored; "
                                   "compression expects a dense model")
    captured, output = capture_activations(model, calib)
    activations = tuple(captured[f"{layer.name}/{layer.entries[0].name}"]
                        for layer in model.layers) + (output,)
    norms = output_norms(activations[1:])
    if 0.0 in norms:
        dead = model.layers[norms.index(0.0)].name
        raise NumericalError(f"{dead}: output is all zeros on the calibration set, "
                             "so the model outputs nothing to compress against")
    contexts = whitening_contexts({key: captured[key] for key, _ in tail})
    check_finite(model, norms)  # after whitening, whose Gram check names the matrix instead
    # pop, so each S and S^-1 is freed as soon as its weight is whitened
    whitened = {key: whitened_weight(e.dense, contexts.pop(key), key) for key, e in tail}
    return CalibratedModel(model=model, whitened=whitened, activations=activations,
                           reference_norms=norms)


def plan(model: SequentialModel, calib: CalibrationSet, cfg: PlannerConfig) -> CompressionPlan:
    """Score every feasible tail-layer candidate and pick the error argmin.

    The calibrated state is built once, for the largest candidate ``k``,
    and shared by every trial. Each trial scores its final layer only.
    Candidates whose compression fails are kept in the table as failed rows
    and skipped by the argmin. The plan carries the winning trial model and
    its per-layer errors, the one per-layer walk the plan runs.

    Raises:
        NumericalError: the first candidate's, when every candidate failed
            and the first failed numerically (it names the matrix).
        InfeasiblePlanError: when every candidate failed otherwise.
    """
    candidates = enumerate_candidates(model.n_layers, cfg, layer_shapes=_layer_shapes(model))
    state = calibrate(model, calib, candidates[-1][0])
    table: list[CandidateResult] = []
    best = first_failure = None
    for k, ratio in candidates:
        try:
            trial = compress_tail_layers(state, k, ratio, cfg.beta)
            error = state.final_error(trial, k)
            if math.isnan(error):
                raise NumericalError("final-layer error undefined")
        except CompressionError as exc:
            table.append(CandidateResult(k=k, layer_ratio=ratio, final_error=math.nan,
                                         status="failed", reason=str(exc)))
            first_failure = first_failure or exc
            continue
        table.append(CandidateResult(k=k, layer_ratio=ratio, final_error=error))
        if best is None or error < best[0].final_error:  # ties go to the smaller k
            best = (table[-1], trial)
    if best is None:
        if isinstance(first_failure, NumericalError):
            raise first_failure
        raise InfeasiblePlanError("every candidate failed during trial compression")
    row, trial = best
    return CompressionPlan(
        k=row.k,
        layer_ratio=row.layer_ratio,
        candidate_table=tuple(table),
        chosen_error=row.final_error,
        n_layers=model.n_layers,
        overall_ratio=cfg.overall_ratio,
        beta=cfg.beta,
        seed=cfg.seed,
        compressed=trial,
        layer_errors=state.layer_errors(trial, row.k),
    )


def compress_model(model: SequentialModel, calib: CalibrationSet,
                   chosen: CompressionPlan) -> SequentialModel:
    """Apply a plan: factor the last ``k`` layers, leave the prefix untouched."""
    if chosen.n_layers != model.n_layers:
        raise CompressionError(
            f"plan was made for {chosen.n_layers} layers, model has {model.n_layers}"
        )
    state = calibrate(model, calib, chosen.k)
    return compress_tail_layers(state, chosen.k, chosen.layer_ratio, chosen.beta)
