"""Tail-layer compression planning.

Only the last ``k`` of ``N`` layers are compressed; the layer ratio
``R_l = N*R_o/k`` keeps the model-wide parameter reduction at ``R_o``.
Each candidate ``k`` is scored by compressing a trial copy and measuring the
final layer's relative output error on the calibration set; the candidate
with the lowest error wins, ties going to the smaller ``k``. Only that error
is computed per candidate: the per-layer errors ``errors.csv`` reports are
computed once, for the winner.

What does not depend on ``k`` is computed once per (model, calibration)
pair by :func:`calibrate`, in one streaming pass over the layers: each
layer's reference output norm, the model's output, and one
:class:`~resvd.compensation.WhitenedWeight` (whitening, then ``U``, sigma
and ``P = V^T S^{-1}`` of ``svd(W S)``) per matrix of the largest tail any
candidate compresses, formed while that matrix's input is live; prefix
matrices are never whitened, and no layer's activations are kept. A
candidate only slices those arrays, runs the residual stage's small
eigendecomposition for its own ``r_i``, and runs forward through its ``k``
tail layers from the original model's input to layer ``N-k``. Candidates
are scored largest ``k`` first, so one walk of the original layers reaches
each of those inputs in turn; the untouched prefix layers score exactly
zero. A trial is built one layer at a time, each layer factored just before
it runs and dropped after, so only one layer of one trial exists at a
time: each candidate keeps only its residual stages, the best so far's
outlive the scan, and the winner is rebuilt from them without an SVD. The
plan carries it and its per-layer errors, so ``compress`` writes them
without computing either again. Every pass of a plan writes its
activations into one :class:`~resvd.model.Workspace` of three ``S×W``
buffers for ``S`` calibration rows of width ``W``, so activations held stay
those buffers and the model's output, whatever the depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import model as model_ops
from .calibration import CalibrationSet, capture_activations
from .compensation import (
    WhitenedWeight,
    compress_matrix,
    direct_truncate_matrix,
    join_stages,
    whitened_weight,
)
from .errors import CompressionError, InfeasibleBudgetError, InfeasiblePlanError, NumericalError
from .linalg import FactorPair, rank_budget
from .model import (
    Layer,
    MatrixEntry,
    SequentialModel,
    Workspace,
    _walk,
    check_finite,
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
    return _tail_model(state, k, lambda key: compress_matrix(state.whitened[key], layer_ratio,
                                                             beta, name=key))


def _tail_model(state: CalibratedModel, k: int,
                factor: Callable[[str], FactorPair]) -> SequentialModel:
    """``state``'s model with each matrix of the last ``k`` layers replaced by ``factor(key)``."""
    model = state.model
    if not 1 <= k <= state.tail:
        raise ValueError(f"k={k} outside [1, {state.tail}]: calibrate whitened only the "
                         f"last {state.tail} of {model.n_layers} layers")
    split = model.n_layers - k
    layers = model.layers[:split] + tuple(_factored(layer, factor)
                                          for layer in model.layers[split:])
    return SequentialModel(layers=layers, meta=dict(model.meta))


def _factored(layer: Layer, factor: Callable[[str], FactorPair]) -> Layer:
    """``layer`` with each matrix replaced by ``factor("<layer>/<matrix>")``."""
    entries = tuple(MatrixEntry(name=e.name, factors=factor(f"{layer.name}/{e.name}"))
                    for e in layer.entries)
    return Layer(name=layer.name, entries=entries, activation=layer.activation)


def _rejoined(state: CalibratedModel, k: int, layer_ratio: float, beta: float,
              residual: dict[str, FactorPair]) -> SequentialModel:
    """``compress_tail_layers(state, k, layer_ratio, beta)``, bit for bit, from its residual stages.

    Each matrix's whitened truncation is cut again from ``state``'s SVD of
    it, a slice and a scaling, and joined to its residual stage as
    :func:`~resvd.compensation.compress_matrix` joins them; no SVD runs.
    """
    def factor(key: str) -> FactorPair:
        weight = state.whitened[key]
        stage1 = direct_truncate_matrix(weight,
                                        rank_budget(*weight.w.shape, layer_ratio, beta).r_i)
        return join_stages(stage1, residual[key]) if key in residual else stage1

    return _tail_model(state, k, factor)


@dataclass(frozen=True, eq=False)
class CalibratedModel:
    """The part of every trial that does not depend on ``k``; see :func:`calibrate`.

    ``whitened`` holds a :class:`~resvd.compensation.WhitenedWeight` for each
    matrix of the tail :func:`calibrate` was given, keyed ``"<layer>/<matrix>"``.
    ``reference_norms[i]`` is the Frobenius norm of layer ``i``'s output on
    the calibration set, and ``output`` the last layer's output. No other
    activation is kept: a trial's input is the original model's input to
    its first factored layer, which the caller walks to (see :func:`plan`).
    """

    model: SequentialModel
    whitened: dict[str, WhitenedWeight]
    reference_norms: tuple[float, ...]
    output: np.ndarray

    @property
    def tail(self) -> int:
        """How many tail layers ``whitened`` covers."""
        return sum(f"{layer.name}/{layer.entries[0].name}" in self.whitened
                   for layer in self.model.layers)


def layer_errors(model: SequentialModel, reference_norms: Sequence[float],
                 trial: SequentialModel, k: int, calib: CalibrationSet,
                 ws: Workspace) -> tuple[float, ...]:
    """Per-layer relative errors of a trial that factored only the last ``k`` layers of ``model``.

    ``reference_norms`` are ``model``'s output norms (a
    :class:`CalibratedModel`'s). Equal to ``layerwise_error(model, trial,
    calib)`` by construction: the original prefix is walked from the
    calibration rows to the trial's input, and the tail is scored by
    :func:`~resvd.model.tail_errors` against the original tail layers
    walked in step from there, the loop that function runs. The trial
    shares the prefix layers, whose outputs are the reference itself and so
    score exactly 0.0 (:func:`calibrate` rejects a zero reference norm).
    """
    split = model.n_layers - k
    x = calib.samples
    for x in _walk(model.layers[:split], x, ws):
        pass
    tail = tail_errors(trial, k, x, model.layers[split:], reference_norms[split:], ws)
    return (0.0,) * split + tuple(tail)


def calibrate(model: SequentialModel, calib: CalibrationSet, k: int,
              ws: Workspace | None = None) -> CalibratedModel:
    """The state every trial of at most ``k`` tail layers shares, each part computed once.

    One streaming pass, :func:`~resvd.calibration.capture_activations`,
    runs each layer once. It whitens each matrix of the last ``k`` layers
    into the :class:`~resvd.compensation.WhitenedWeight` that trials only
    truncate while that matrix's input is live, takes each layer's output
    norm as the layer finishes, and keeps only the model's output. It runs
    in ``ws`` (one of its own when None) and holds two of its buffers, the
    model's output and the tail's whitened factors, whatever the depth.

    Raises:
        ValueError: when ``k`` is outside ``[1, N]``.
        CompressionError: naming the first matrix of the last ``k`` layers
            that is already factored, before any work is done.
        NumericalError: naming the first fault in forward order: a matrix
            whose output overflows float64, a layer whose output is all zeros
            (the layers have no bias, so every later output is zero and no
            candidate's error is defined), or a tail matrix that cannot be
            whitened or whose whitened SVD fails; failing those, the first
            layer whose output norm overflows.
    """
    if not 1 <= k <= model.n_layers:
        raise ValueError(f"k={k} outside [1, {model.n_layers}]")
    for layer in model.layers[model.n_layers - k :]:
        for e in layer.entries:
            if e.is_factored:
                raise CompressionError(f"entry {layer.name}/{e.name} is already factored; "
                                       "compression expects a dense model")
    whitened, norms, output = capture_activations(model, calib, k, whitened_weight, ws)
    check_finite(model, norms)  # after the pass, whose Gram check names the matrix instead
    return CalibratedModel(model=model, whitened=whitened, reference_norms=norms, output=output)


def _scored(state: CalibratedModel, k: int, layer_ratio: float, beta: float, x: np.ndarray,
            ws: Workspace) -> tuple[float, dict[str, FactorPair]]:
    """Candidate ``k``'s final-layer error from ``x``, the trial's input, and its residual stages.

    Each of the trial's ``k`` layers is factored by
    :func:`~resvd.compensation.compress_matrix` just before it runs and
    dropped once it has, so no two of them are held at once. Only a copy of
    each matrix's residual-stage columns outlives its layer, keyed like
    ``state.whitened``; ``compress_matrix`` puts them after the whitened
    truncation's ``r_i``, and a matrix whose budget has no residual stage
    has no entry. The layers run through :func:`~resvd.model._walk` and the
    last output is scored by ``_relative_error``, as
    :func:`~resvd.model.tail_errors` scores it, so the error is that
    function's last entry bit for bit. ``x`` is only read, so the caller
    may walk on from it.
    """
    residual = {}

    def factor(key: str) -> FactorPair:
        pair = compress_matrix(state.whitened[key], layer_ratio, beta, name=key)
        r_i = rank_budget(*pair.shape, layer_ratio, beta).r_i
        if pair.rank > r_i:
            residual[key] = FactorPair(u_hat=pair.u_hat[:, r_i:].copy(),
                                       v_hat=pair.v_hat[r_i:].copy())
        return pair

    y = x
    for layer in state.model.layers[state.model.n_layers - k :]:
        trial = _factored(layer, factor)
        y, = _walk((trial,), y, ws, keep=x)
        del trial  # the next layer is factored once this one is gone
    # through model's own name, so whatever wraps it there sees every score
    error = model_ops._relative_error(y, (state.output, state.reference_norms[-1]))
    if math.isnan(error):
        raise NumericalError("final-layer error undefined")
    return error, residual


def plan(model: SequentialModel, calib: CalibrationSet, cfg: PlannerConfig) -> CompressionPlan:
    """Score every feasible tail-layer candidate and pick the error argmin.

    The calibrated state is built once, for the largest candidate ``k``,
    and shared by every trial. Candidates are scored largest ``k`` first,
    so one walk of the original layers reaches each trial's input in turn;
    each trial scores its final layer only. Candidates whose compression
    fails are kept in the table as failed rows and skipped by the argmin.
    Only one layer of one trial exists at a time (:func:`_scored`): the
    best so far keeps its residual stages, and the winning trial is rebuilt
    from them (:func:`_rejoined`) once the scan ends. Then the calibrated
    state is released, and the winner's per-layer errors
    (:func:`layer_errors`) are scored from its input, walked to again.
    Every pass runs in one :class:`~resvd.model.Workspace`, so activations
    held stay three buffers, the model's output and scratch, whatever the
    depth.

    Raises:
        NumericalError: the smallest candidate's, when every candidate
            failed and that one failed numerically (it names the matrix).
        InfeasiblePlanError: when every candidate failed otherwise.
    """
    candidates = enumerate_candidates(model.n_layers, cfg, layer_shapes=_layer_shapes(model))
    ws = Workspace(calib.num_samples, model)
    state = calibrate(model, calib, candidates[-1][0], ws)
    inputs = _walk(model.layers, calib.samples, ws)
    x, at = calib.samples, 0  # x is what the original model feeds layer ``at``
    rows: list[CandidateResult] = []
    best = failure = None
    for k, ratio in reversed(candidates):
        while at < model.n_layers - k:
            x, at = next(inputs), at + 1
        try:
            error, residual = _scored(state, k, ratio, cfg.beta, x, ws)
        except CompressionError as exc:
            rows.append(CandidateResult(k=k, layer_ratio=ratio, final_error=math.nan,
                                        status="failed", reason=str(exc)))
            failure = exc  # the last one scored is the smallest k's
            continue
        rows.append(CandidateResult(k=k, layer_ratio=ratio, final_error=error))
        if best is None or error <= best[0].final_error:  # ties go to the smaller k, scored later
            best = (rows[-1], residual)
    if best is None:
        if isinstance(failure, NumericalError):
            raise failure
        raise InfeasiblePlanError("every candidate failed during trial compression")
    row, residual = best
    trial = _rejoined(state, row.k, row.layer_ratio, cfg.beta, residual)
    norms = state.reference_norms
    del state  # its whitened factors and the model's output go before the winner's pass
    return CompressionPlan(
        k=row.k,
        layer_ratio=row.layer_ratio,
        candidate_table=tuple(reversed(rows)),
        chosen_error=row.final_error,
        n_layers=model.n_layers,
        overall_ratio=cfg.overall_ratio,
        beta=cfg.beta,
        seed=cfg.seed,
        compressed=trial,
        layer_errors=layer_errors(model, norms, trial, row.k, calib, ws),
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
