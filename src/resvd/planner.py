"""Tail-layer compression planning.

Only the last ``k`` of ``N`` layers are compressed; the layer ratio
``R_l = N*R_o/k`` keeps the model-wide parameter reduction at ``R_o``.
Each candidate ``k`` is scored by compressing a trial copy and measuring the
final layer's relative output error on the calibration set; the candidate
with the lowest error wins, ties going to the smaller ``k``.

What does not depend on ``k`` is computed once per (model, calibration)
pair by :func:`calibrate`: one activation capture, one whitening context per
matrix, and each layer's reference output and its norm. The contexts also
keep each matrix's whitened SVD ``svd(W S)`` once a trial has computed it.
A candidate therefore only truncates cached factors, runs the residual stage
for its own ``r_i``, and runs forward through its ``k`` tail layers from the
captured input of layer ``N-k``; the untouched prefix layers score exactly
zero. The plan keeps the winning trial model and its per-layer errors, so
``compress`` writes them without rebuilding either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .calibration import CalibrationSet, ScalingContext, capture_activations, whitening_contexts
from .compensation import compress_matrix
from .errors import CompressionError, InfeasibleBudgetError, InfeasiblePlanError, NumericalError
from .linalg import rank_budget
from .model import (
    Layer,
    MatrixEntry,
    SequentialModel,
    check_finite,
    output_norms,
    tail_errors,
)
# Not called here; perfbench/tracer.py wraps it by name (ROADMAP item 4).
from .model import layerwise_error  # noqa: F401

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
    # ``compress``; plan files never store them.
    compressed: SequentialModel | None = field(default=None, compare=False, repr=False)
    layer_errors: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def layer_ratio_exact(self) -> Fraction:
        """R_l as an exact rational, so k * R_l == N * R_o identically."""
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
    (checked in exact rational arithmetic). When ``layer_shapes`` is given,
    candidates whose tail layers cannot afford even rank 1 are dropped too.

    Raises:
        InfeasiblePlanError: when no candidate survives.
    """
    if n_layers < 2:
        raise InfeasiblePlanError(f"need at least 2 layers to plan, got {n_layers}")
    budget = Fraction(cfg.overall_ratio) * n_layers
    out: list[tuple[int, float]] = []
    for k in range(cfg.step, n_layers - cfg.step + 1, cfg.step):
        if not budget < k:  # R_l >= 1: the tail cannot absorb the whole budget
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
    model: SequentialModel,
    contexts: dict[str, ScalingContext],
    k: int,
    layer_ratio: float,
    beta: float,
) -> SequentialModel:
    """New model with the last ``k`` layers factored; the prefix is shared as-is."""
    if not 1 <= k <= model.n_layers:
        raise ValueError(f"k={k} outside [1, {model.n_layers}]")
    layers = list(model.layers[: model.n_layers - k])
    for layer in model.layers[model.n_layers - k :]:
        entries = []
        for e in layer.entries:
            if e.is_factored:
                raise CompressionError(
                    f"entry {layer.name}/{e.name} is already factored; "
                    "compression expects a dense model"
                )
            key = f"{layer.name}/{e.name}"
            pair = compress_matrix(e.dense, contexts[key], layer_ratio, beta, name=key)
            entries.append(
                MatrixEntry(name=e.name, rows=e.rows, cols=e.cols, factors=pair)
            )
        layers.append(Layer(name=layer.name, entries=tuple(entries), activation=layer.activation))
    return SequentialModel(layers=tuple(layers), input_dim=model.input_dim, meta=dict(model.meta))


@dataclass(frozen=True, eq=False)
class CalibratedModel:
    """The part of every trial that does not depend on ``k``; see :func:`calibrate`.

    ``inputs[i]`` is what layer ``i`` receives on the calibration set and
    ``reference[i]`` what it outputs, so ``reference[i] is inputs[i + 1]``.
    """

    model: SequentialModel
    contexts: dict[str, ScalingContext]
    inputs: tuple[np.ndarray, ...]
    reference: tuple[np.ndarray, ...]
    reference_norms: tuple[float, ...]

    def layer_errors(self, trial: SequentialModel, k: int) -> tuple[float, ...]:
        """Per-layer relative errors of a trial that factored only the last ``k`` layers.

        Equal to ``layerwise_error(model, trial, calib)`` by construction: the
        tail is scored by :func:`~resvd.model.tail_errors`, whose walk and
        scoring loop that function shares, and the trial shares the prefix
        layers, whose outputs are the reference itself and so score exactly
        0.0 (:func:`calibrate` rejects a zero reference norm).
        """
        split = self.model.n_layers - k
        tail = tail_errors(trial, k, self.inputs[split],
                           self.reference[split:], self.reference_norms[split:])
        return (0.0,) * split + tuple(tail)


def calibrate(model: SequentialModel, calib: CalibrationSet) -> CalibratedModel:
    """Capture activations once, whiten every matrix, and record each layer's output.

    A layer's output is the captured input of the next one, and the capture
    pass returns the last layer's output, so every layer runs once.

    Raises:
        NumericalError: naming the first layer whose output (or its norm)
            overflows float64 or is all zeros, or the first matrix that cannot
            be whitened. The layers have no bias, so after a zero output every
            later one is zero too and no candidate can be scored.
    """
    captured, output = capture_activations(model, calib)
    inputs = tuple(captured[f"{layer.name}/{layer.entries[0].name}"] for layer in model.layers)
    reference = inputs[1:] + (output,)
    norms = output_norms(reference)
    if 0.0 in norms:
        dead = model.layers[norms.index(0.0)].name
        raise NumericalError(f"{dead}: output is all zeros on the calibration set, "
                             "so the model outputs nothing to compress against")
    contexts = whitening_contexts(captured)
    check_finite(model, norms)  # after whitening, whose Gram check names the matrix instead
    return CalibratedModel(model=model, contexts=contexts, inputs=inputs,
                           reference=reference, reference_norms=norms)


def plan(model: SequentialModel, calib: CalibrationSet, cfg: PlannerConfig) -> CompressionPlan:
    """Score every feasible tail-layer candidate and pick the error argmin.

    The calibrated state is built once and shared by every trial.
    Candidates whose compression fails are kept in the table as failed rows
    and skipped by the argmin. The plan carries the winning trial model and
    its per-layer errors.
    """
    candidates = enumerate_candidates(model.n_layers, cfg, layer_shapes=_layer_shapes(model))
    state = calibrate(model, calib)
    table: list[CandidateResult] = []
    best = None
    for k, ratio in candidates:
        try:
            trial = compress_tail_layers(model, state.contexts, k, ratio, cfg.beta)
            errors = state.layer_errors(trial, k)
            if math.isnan(errors[-1]):
                raise NumericalError("final-layer error undefined")
        except CompressionError as exc:
            table.append(CandidateResult(k=k, layer_ratio=ratio, final_error=math.nan,
                                         status="failed", reason=str(exc)))
            continue
        table.append(CandidateResult(k=k, layer_ratio=ratio, final_error=errors[-1]))
        if best is None or errors[-1] < best[0].final_error:  # ties go to the smaller k
            best = (table[-1], trial, errors)
    if best is None:
        raise InfeasiblePlanError("every candidate failed during trial compression")
    row, trial, errors = best
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
        layer_errors=errors,
    )


def compress_model(model: SequentialModel, calib: CalibrationSet,
                   chosen: CompressionPlan) -> SequentialModel:
    """Apply a plan: factor the last ``k`` layers, leave the prefix untouched."""
    if chosen.n_layers != model.n_layers:
        raise CompressionError(
            f"plan was made for {chosen.n_layers} layers, model has {model.n_layers}"
        )
    contexts = calibrate(model, calib).contexts
    return compress_tail_layers(model, contexts, chosen.k, chosen.layer_ratio, chosen.beta)
