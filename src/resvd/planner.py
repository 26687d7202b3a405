"""Tail-layer compression planning.

Only the last ``k`` of ``N`` layers are compressed; the layer ratio
``R_l = N*R_o/k`` keeps the model-wide parameter reduction at ``R_o``.
Each candidate ``k`` is scored by compressing a trial copy and measuring the
final layer's relative output error on the calibration set; the candidate
with the lowest error wins, ties going to the smaller ``k``. Only that error
is computed per candidate, and no per-layer curve at all: ``compress``
scores the winner's per-layer errors for ``errors.csv`` with
:func:`~resvd.model.layerwise_error`, the call ``analyze`` makes.

What does not depend on ``k`` is computed once per (model, calibration)
pair by :func:`calibrate`, in one pass that runs one layer at a time over
every block, and kept in :mod:`resvd.state_cache` for the next command on
the pair (which keeps each scan's result too; see :func:`plan`): each
layer's reference output norm, the model's output, spilled to an
unlinked temporary file, and one
:class:`~resvd.compensation.WhitenedWeight` (whitening, then ``U`` and
sigma of ``svd(W S)``) per matrix of the largest tail any candidate
compresses, formed from that matrix's input Gram matrix once the layer's
last block is through; prefix matrices are never whitened, only one
layer's Gram matrices exist at a time, and no layer's activations are
kept beyond the next layer's pass. A candidate only
slices ``U``, multiplies the slices with the weight for both stages
(``U^T W`` is ``diag(sigma) V^T S^{-1}``, so ``S`` is never inverted), runs
the residual stage's small eigendecomposition for its own ``r_i``, and
runs forward through its ``k`` tail layers from the original model's input
to layer ``N-k``. Candidates are scored largest ``k`` first, so one walk of
the original layers reaches each of those inputs in turn; the untouched
prefix layers score exactly zero. One function, :func:`_trial_factor`,
builds every factored layer, the scan's and the winner's: it factors each
matrix of a candidate once, keeps only its residual stage, and builds it
again from that stage with no SVD. Only one layer of one trial exists at a
time. The plan carries the winner, so ``compress`` writes it without
factoring it again. A tail's matrices, their keys and their order are
:meth:`~resvd.model.SequentialModel.tail_entries`, which the pass, every
check of a tail here and both kinds of cache entry walk.
Every pass of a plan walks the ``S`` calibration rows in the blocks of one
:class:`~resvd.model.Workspace`, of ``B`` rows each, and writes its
activations into its three ``B×W`` buffers for rows of width ``W``. The
calibration pass sums each Gram matrix and squared norm over the blocks,
reading each layer's input back from the previous layer's spill, and
the scan each candidate's squared error against the model's output, read
back from its file block by block, so activations held stay those
buffers, whatever the depth and ``S``.
"""

from __future__ import annotations

import errno
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import model as model_ops
from .calibration import CalibrationSet, RowFile, capture_activations
from .compensation import (
    WhitenedWeight,
    compress_matrix,
    direct_truncate_matrix,
    join_stages,
    whitened_weight,
)
from .errors import (
    CompressionError,
    FormatError,
    InfeasibleBudgetError,
    InfeasiblePlanError,
    NumericalError,
)
from .linalg import FactorPair, rank_budget
from .model import (
    Layer,
    MatrixEntry,
    SequentialModel,
    Workspace,
    _walk,
    check_finite,
)
# Not called here; perfbench/tracer.py wraps it by name (ROADMAP item 1).
from .model import layerwise_error  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction
    from pathlib import Path

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
        # floats, as the command line gives them, so beta=0 plans and is cached as beta=0.0
        object.__setattr__(self, "overall_ratio", float(self.overall_ratio))
        object.__setattr__(self, "beta", float(self.beta))


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
    # The winning trial, held in memory for ``compress``; plan files never
    # store it.
    compressed: SequentialModel | None = field(default=None, compare=False, repr=False)

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
    if not 1 <= k <= state.tail:
        raise ValueError(f"k={k} outside [1, {state.tail}]: calibrate whitened only the "
                         f"last {state.tail} of {state.model.n_layers} layers")
    return _tail_model(state.model, k, _trial_factor(state, layer_ratio, beta, {}))


def _tail_model(model: SequentialModel, k: int,
                factor: Callable[[str], FactorPair]) -> SequentialModel:
    """``model`` with each matrix of the last ``k`` layers replaced by ``factor(key)``, keyed
    ``"<layer>/<matrix>"``; the prefix is shared as-is."""
    split = model.n_layers - k
    layers = model.layers[:split] + tuple(_factored(layer, factor)
                                          for layer in model.layers[split:])
    return SequentialModel(layers=layers, meta=dict(model.meta))


def _factored(layer: Layer, factor: Callable[[str], FactorPair]) -> Layer:
    """``layer`` with each matrix replaced by ``factor("<layer>/<matrix>")``."""
    entries = tuple(MatrixEntry(name=e.name, factors=factor(key))
                    for key, e in layer.keyed_entries())
    return Layer(name=layer.name, entries=entries, activation=layer.activation)


def _trial_factor(state: CalibratedModel, layer_ratio: float, beta: float,
                  residual: dict[str, FactorPair | None]) -> Callable[[str], FactorPair]:
    """``compress_matrix(state.whitened[key], layer_ratio, beta)`` as a function of ``key``,
    running that call only the first time a key is asked for.

    The first call for a key runs :func:`~resvd.compensation.compress_matrix`
    and keeps in ``residual``, the candidate's memo, a copy of the pair's
    residual-stage columns, which ``compress_matrix`` puts after the
    whitened truncation's ``r_i``, or None when the budget has no residual
    stage. Every later call projects the whitened truncation again with the
    :func:`~resvd.compensation.direct_truncate_matrix` call that
    ``compress_matrix`` makes, from a slice of ``state``'s ``U`` and the
    weight, and joins the kept stage as ``compress_matrix`` joins it: the
    same factors, bit for bit, with no SVD.
    """
    def factor(key: str) -> FactorPair:
        weight = state.whitened[key]
        r_i = rank_budget(*weight.w.shape, layer_ratio, beta).r_i
        if key not in residual:
            pair = compress_matrix(weight, layer_ratio, beta, name=key)
            residual[key] = FactorPair(u_hat=pair.u_hat[:, r_i:].copy(),
                                       v_hat=pair.v_hat[r_i:].copy()) if pair.rank > r_i else None
            return pair
        stage1 = direct_truncate_matrix(weight, r_i)
        return stage1 if residual[key] is None else join_stages(stage1, residual[key])

    return factor


@dataclass(frozen=True, eq=False)
class CalibratedModel:
    """The part of every trial that does not depend on ``k``; see :func:`calibrate`.

    ``whitened`` holds a :class:`~resvd.compensation.WhitenedWeight` for each
    matrix of the tail :func:`calibrate` was given, keyed ``"<layer>/<matrix>"``.
    ``reference_norms[i]`` is the Frobenius norm of layer ``i``'s output on
    the calibration set, and ``output`` the last layer's output, in a
    temporary file or a cache entry. No activation is held: a trial's input
    is the original model's input to its first factored layer, which the
    caller walks to (see :func:`plan`).
    """

    model: SequentialModel
    whitened: dict[str, WhitenedWeight]
    reference_norms: tuple[float, ...]
    output: RowFile

    @property
    def tail(self) -> int:
        """How many tail layers ``whitened`` covers."""
        return sum(next(layer.keyed_entries())[0] in self.whitened for layer in self.model.layers)


def calibrate(model: SequentialModel, calib: CalibrationSet, k: int,
              ws: Workspace | None = None, entry: Path | None = None) -> CalibratedModel:
    """The state every trial of at most ``k`` tail layers shares, each part computed once.

    One pass, :func:`~resvd.calibration.capture_activations`, runs one
    layer at a time on every block of ``ws`` (one of its own when None),
    reading each layer's input back from the temporary file the previous
    layer's output went to. It sums the layer's squared output norm and,
    for each of the last ``k`` layers, each matrix's input Gram matrix over
    the blocks; after the layer's last block it whitens each of those
    matrices into the :class:`~resvd.compensation.WhitenedWeight` that
    trials only truncate, before the next layer runs. The last layer's file
    holds the model's output. It holds two block buffers, one layer's Gram
    matrices and the tail's whitened factors, whatever the depth and row
    count.

    The pass runs only when :mod:`resvd.state_cache` holds no state of
    ``model`` on these rows in these blocks covering ``k``, and a pass that
    succeeds leaves one there. A state found covering more layers gives
    only the last ``k``, so the result is the pass's, bit for bit, and its
    ``output`` reads the rows from the entry. ``entry`` is that state's
    entry, as :func:`~resvd.state_cache.entry_for` names it for ``ws``, so
    a caller that has named it hashes no key twice; None is named here, and
    a cache found unusable stops that naming again before any key is hashed.

    Raises:
        ValueError: when ``k`` is outside ``[1, N]``.
        OSError: when the model's output cannot be spilled.
        FormatError: naming the calibration file, when it ends early or
            holds a non-finite value in a row that is read.
        CompressionError: naming the first matrix of the last ``k`` layers
            that is already factored, before any work is done.
        NumericalError: naming the first fault in forward order: a matrix
            whose output overflows float64, a layer whose output is all zeros
            (the layers have no bias, so every later output is zero and no
            candidate's error is defined), or a tail matrix that cannot be
            whitened or whose whitened SVD fails; failing those, the first
            layer whose output norm overflows.
    """
    _refuse_factored(model, k)
    if ws is None:
        ws = Workspace(calib.num_samples, model)
    from . import state_cache  # here, so analyze loads neither the cache nor hashlib

    if entry is None:
        entry = state_cache.entry_for(model, calib, k, ws)
    parts = state_cache.load(entry, model, k, ws)
    if parts is None:
        parts = capture_activations(model, calib, k, whitened_weight, ws)
        check_finite(model, parts[1])  # after the pass, whose Gram check names the matrix instead
        state_cache.save(entry, model, k, parts, ws)
    whitened, norms, output = parts
    return CalibratedModel(model=model, whitened=whitened, reference_norms=norms, output=output)


def _refuse_factored(model: SequentialModel, k: int) -> None:
    """Refuse, before any work, a ``k`` outside ``[1, N]`` or a tail that is already factored;
    see :func:`calibrate`."""
    if not 1 <= k <= model.n_layers:
        raise ValueError(f"k={k} outside [1, {model.n_layers}]")
    for key, e in model.tail_entries(k):
        if e.is_factored:
            raise CompressionError(f"entry {key} is already factored; "
                                   "compression expects a dense model")


def _scored(state: CalibratedModel, k: int, layer_ratio: float, beta: float, x: np.ndarray,
            rows: slice, ws: Workspace, residual: dict[str, FactorPair | None]) -> float:
    """Candidate ``k``'s squared final-layer error on one block, from ``x``, the trial's input
    on the calibration rows ``rows``.

    Each of the trial's ``k`` layers is factored just before it runs, by
    :func:`_trial_factor` with ``residual`` as the candidate's memo, and
    dropped once it has, so no two of them are held at once: the first
    block that scores a candidate fills the memo, and every later one
    builds the same factors from it with no SVD. Each layer runs through
    :meth:`~resvd.model.Layer.forward` and the last output is scored
    against the calibrated output's rows, the layer applies and the
    subtraction that :func:`~resvd.model.layerwise_error` runs, so the
    error summed over the blocks is the last entry of that function's
    curve for the trial, bit for bit. Every layer holds ``x``, which is
    only read, so the caller may walk on from it. The reference rows are
    read from the output's file into the buffer of ``ws`` that holds
    neither ``x`` nor the trial's output, so scoring allocates nothing.

    Raises:
        OSError: when that file ends early; it is the run's own, so this
            ends the run, not just the candidate.
    """
    factor = _trial_factor(state, layer_ratio, beta, residual)
    y = x
    for layer in state.model.layers[state.model.n_layers - k :]:
        trial = _factored(layer, factor)
        y = trial.forward(y, ws, x)
        del trial  # the next layer is factored once this one is gone
    try:
        y_ref = state.output.read(rows.start, ws.free(len(y), y.shape[1], x, y))
    except FormatError as exc:
        raise OSError(errno.EIO, str(exc)) from exc
    # through model's own name, so whatever wraps it there sees every score
    return model_ops._squared_error(y, y_ref)


def _too_thin(model: SequentialModel, k: int, layer_ratio: float, beta: float,
              rows: int) -> str | None:
    """Why ``rows`` calibration rows cannot score candidate ``k``, or None when they can.

    A matrix whose kept rank ``r`` is at least the row count fits those rows
    exactly up to the ridge, so the candidate's error would measure the
    ridge and not the compression. The first such matrix of the last ``k``
    layers is named.
    """
    for key, e in model.tail_entries(k):
        r = rank_budget(e.rows, e.cols, layer_ratio, beta).r
        if rows <= r:
            return (f"{key}: calibration rows in use ({rows}) do not exceed the kept rank {r}, "
                    "so its error would measure the ridge, not the compression")
    return None


def plan(model: SequentialModel, calib: CalibrationSet, cfg: PlannerConfig) -> CompressionPlan:
    """Score every feasible tail-layer candidate and pick the error argmin.

    The calibrated state is built once, for the largest candidate ``k``,
    and shared by every trial. The scan walks the calibration rows in the
    blocks of one :class:`~resvd.model.Workspace`. In each block,
    candidates are scored largest ``k`` first, so one walk of the original
    layers reaches each trial's input in turn; each trial scores its final
    layer only (:func:`_scored`), and its squared error is summed over the
    blocks in order. Every trial layer, in every block, and the winner
    ``plan`` returns for ``compress`` to write are built by one function,
    :func:`_trial_factor`, from the candidate's memo: each matrix is
    factored once, and only one layer of one trial exists at a time. Every
    candidate keeps its memo until the last block, where only the best so
    far keeps it, so a run of one block holds what one pass over every row
    held. Candidates whose compression fails, in any block, are failed
    rows of the table, built once the scan ends, and skipped by the
    argmin; so is each candidate with a matrix whose kept rank is at least
    the calibration's row count (:func:`_too_thin`): those are never
    calibrated or scored, and the calibrated state covers the largest
    ``k`` that is. Each failure is kept as its error's type and message,
    not as the error, so no frame of the scan outlives it. No per-layer pass runs here. Activations held stay
    three block buffers and scratch, whatever the depth and the row count;
    the model's output is read back from its file block by block.

    The scan's result depends only on the calibrated state's inputs and on
    ``cfg``'s ratio, beta and step, so a plan that found a winner is kept
    in :mod:`resvd.state_cache` beside the state, named from the state's
    entry, whose key is hashed once here and handed to :func:`calibrate`.
    A plan found there is returned with no state load, no factoring and no
    trial: its table, and the model's prefix with the winner's stored
    factor pairs, bit for bit those of the scan; the seed comes from
    ``cfg``.

    Raises:
        OSError: when the model's output cannot be spilled, or comes back
            short.
        NumericalError: the smallest candidate's, when every candidate
            failed and that one failed numerically (it names the matrix).
        InfeasiblePlanError: the smallest candidate's, naming the matrix,
            when it has too few calibration rows, raised before any pass
            when every candidate has; when every candidate failed otherwise.
    """
    candidates = enumerate_candidates(model.n_layers, cfg, layer_shapes=_layer_shapes(model))
    failures: dict[int, tuple[type[CompressionError], str]] = {
        k: (InfeasiblePlanError, thin) for k, ratio in candidates
        if (thin := _too_thin(model, k, ratio, cfg.beta, calib.num_samples))}
    scored = [k for k, _ in candidates if k not in failures]
    if not scored:
        raise InfeasiblePlanError(failures[candidates[0][0]][1])
    _refuse_factored(model, scored[-1])  # before any key is hashed
    ws = Workspace(calib.num_samples, model)
    from . import state_cache

    entry = state_cache.entry_for(model, calib, scored[-1], ws)
    saved = state_cache.plan_entry(entry, cfg)
    found = state_cache.load_plan(saved, model)
    if found is not None:
        k, table, pairs = found
        return _chosen(model, cfg, k, table, pairs.__getitem__)
    state = calibrate(model, calib, scored[-1], ws, entry)
    squares = dict.fromkeys(scored, 0.0)
    memos: dict[int, dict[str, FactorPair | None]] = {k: {} for k in scored}
    errors: dict[int, float] = {}
    best = None
    for block in ws.blocks:
        last = block is ws.blocks[-1]
        x, at = calib.block(block, ws), 0  # x is what the original model feeds layer ``at``
        inputs = _walk(model.layers, x, ws)
        for k, ratio in reversed(candidates):
            if k in failures:
                continue
            while at < model.n_layers - k:
                x, at = next(inputs), at + 1
            try:
                squares[k] += _scored(state, k, ratio, cfg.beta, x, block, ws, memos[k])
                if last:
                    error = model_ops._relative_error(squares[k], state.reference_norms[-1])
                    if math.isnan(error):
                        raise NumericalError("final-layer error undefined")
            except CompressionError as exc:
                failures[k] = (type(exc), str(exc))
                del memos[k]
                continue
            if last:
                errors[k] = error
                if best is None or error <= errors[best]:  # ties go to the smaller k, scored later
                    memos.pop(best, None)
                    best = k
                else:
                    del memos[k]
    if best is None:
        kind, reason = failures[candidates[0][0]]
        raise (kind(reason) if issubclass(kind, (NumericalError, InfeasiblePlanError))
               else InfeasiblePlanError("every candidate failed during trial compression"))
    ratio = dict(candidates)[best]
    chosen = _chosen(model, cfg, best, tuple(
        CandidateResult(k=k, layer_ratio=r, final_error=math.nan, status="failed",
                        reason=failures[k][1]) if k in failures
        else CandidateResult(k=k, layer_ratio=r, final_error=errors[k])
        for k, r in candidates), _trial_factor(state, ratio, cfg.beta, memos[best]))
    state_cache.save_plan(saved, chosen)
    return chosen


def _chosen(model: SequentialModel, cfg: PlannerConfig, k: int,
            table: tuple[CandidateResult, ...],
            factor: Callable[[str], FactorPair]) -> CompressionPlan:
    """The plan that picks ``k`` from ``table``, its winner ``model`` with the last ``k`` layers
    factored by ``factor``."""
    winner = next(row for row in table if row.k == k)
    return CompressionPlan(
        k=k,
        layer_ratio=winner.layer_ratio,
        candidate_table=table,
        chosen_error=winner.final_error,
        n_layers=model.n_layers,
        overall_ratio=cfg.overall_ratio,
        beta=cfg.beta,
        seed=cfg.seed,
        compressed=_tail_model(model, k, factor),
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
