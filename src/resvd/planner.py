"""Tail-layer compression planning.

Only the last ``k`` of ``N`` layers are compressed; the layer ratio
``R_l = N*R_o/k`` keeps the model-wide parameter reduction at ``R_o``.
Each candidate ``k`` is scored by compressing a trial copy and measuring the
final layer's relative output error on the calibration set; the candidate
with the lowest error wins, ties going to the smaller ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .calibration import CalibrationSet, ScalingContext, capture_activations, whitening_contexts
from .compensation import CompensationConfig, compress_matrix
from .errors import CompressionError, InfeasibleBudgetError, InfeasiblePlanError
from .linalg import rank_budget
from .model import Layer, MatrixEntry, SequentialModel, layerwise_error

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
    cfg = CompensationConfig(layer_ratio=layer_ratio, beta=beta)
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
            pair = compress_matrix(e.dense, contexts[key], cfg, name=key)
            entries.append(
                MatrixEntry(name=e.name, rows=e.rows, cols=e.cols, factors=pair)
            )
        layers.append(Layer(name=layer.name, entries=tuple(entries), activation=layer.activation))
    return SequentialModel(layers=tuple(layers), input_dim=model.input_dim, meta=dict(model.meta))


def plan(model: SequentialModel, calib: CalibrationSet, cfg: PlannerConfig) -> CompressionPlan:
    """Score every feasible tail-layer candidate and pick the error argmin.

    Whitening contexts come from the original model's activations once and
    are shared by every trial. Candidates whose compression fails are kept
    in the table as failed rows and skipped by the argmin.
    """
    candidates = enumerate_candidates(model.n_layers, cfg, layer_shapes=_layer_shapes(model))
    contexts = whitening_contexts(model, capture_activations(model, calib))

    def evaluate(k: int, ratio: float) -> CandidateResult:
        try:
            trial = compress_tail_layers(model, contexts, k, ratio, cfg.beta)
            err = layerwise_error(model, trial, calib).final_error
        except CompressionError as exc:
            return CandidateResult(k=k, layer_ratio=ratio, final_error=math.nan,
                                   status="failed", reason=str(exc))
        if math.isnan(err):
            return CandidateResult(k=k, layer_ratio=ratio, final_error=math.nan,
                                   status="failed", reason="final-layer error undefined")
        return CandidateResult(k=k, layer_ratio=ratio, final_error=err)

    table = [evaluate(k, ratio) for k, ratio in candidates]
    scored = [row for row in table if row.status == "ok"]
    if not scored:
        raise InfeasiblePlanError("every candidate failed during trial compression")
    best = min(scored, key=lambda row: row.final_error)  # first minimum: ties go to smaller k
    return CompressionPlan(
        k=best.k,
        layer_ratio=best.layer_ratio,
        candidate_table=tuple(table),
        chosen_error=best.final_error,
        n_layers=model.n_layers,
        overall_ratio=cfg.overall_ratio,
        beta=cfg.beta,
        seed=cfg.seed,
    )


def compress_model(
    model: SequentialModel,
    calib: CalibrationSet,
    chosen: CompressionPlan,
    beta: float | None = None,
) -> SequentialModel:
    """Apply a plan: factor the last ``k`` layers, leave the prefix untouched."""
    if chosen.n_layers != model.n_layers:
        raise CompressionError(
            f"plan was made for {chosen.n_layers} layers, model has {model.n_layers}"
        )
    contexts = whitening_contexts(model, capture_activations(model, calib))
    return compress_tail_layers(
        model, contexts, chosen.k, chosen.layer_ratio, chosen.beta if beta is None else beta
    )
