"""Top-N mean absolute error in grid units, and tabular reporting.

For each test example and future step, the error is the Euclidean distance in
(longitudinal, lateral) grid-index space between the ground-truth cell and
the closest cell among the N highest-ranked hypotheses:

    MAE = (1/L) * sum_i || (w_i*, l_i*) - (w_i_gt, l_i_gt) ||_2

MAE_X and MAE_Y are the |dw| and |dl| means of the same selected candidates.
Two candidate-selection readings are supported: "per_step" (default) picks
the closest candidate independently at each step; "whole_trajectory" picks
one hypothesis per example by mean distance over the full horizon and sticks
with it. Reports label which was used.

Examples whose ground truth is out of map at a step are excluded there and
tallied (distance to out-of-map is undefined on the index lattice); the same
applies when every candidate is out of map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ogm import GridSpec, unflatten_indices
from .seq2seq import FRAME_DT, LABEL_STRIDE, TrajectoryPrediction

__all__ = [
    "EvalConfig",
    "TopOmegaResult",
    "EvalReport",
    "top_omega_mae",
    "evaluate",
    "score_predictions",
    "score_classes",
    "render_report",
]

METRICS = ("MAE", "MAE_X", "MAE_Y")


@dataclass(frozen=True)
class EvalConfig:
    omegas: tuple[int, ...] = (1, 3, 5)
    horizons_s: tuple[float, ...] = (0.4, 0.8, 1.2, 1.6, 2.0)
    selection: str = "per_step"

    def __post_init__(self) -> None:
        if not self.omegas or any(o < 1 for o in self.omegas):
            raise ValueError("omegas must be positive")
        if self.selection not in ("per_step", "whole_trajectory"):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        for h in self.horizons_s:
            steps = h / (FRAME_DT * LABEL_STRIDE)
            if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
                raise ValueError(f"horizon {h}s is not a positive multiple of {FRAME_DT * LABEL_STRIDE}s")

    def horizon_steps(self) -> list[int]:
        return [int(round(h / (FRAME_DT * LABEL_STRIDE))) for h in self.horizons_s]


@dataclass
class TopOmegaResult:
    mae: float
    mae_x: float
    mae_y: float
    n_evaluated: int
    n_truth_out_of_map: int
    n_no_candidate: int


def _hypothesis_classes(predictions, num_hyps: int, grid: GridSpec) -> np.ndarray:
    """The (N, num_hyps, H) flat classes of each prediction's first num_hyps
    hypotheses. A prediction with fewer is padded with out-of-map ones,
    which no selection mode ever picks."""
    if not predictions:
        raise ValueError("no predictions to score")
    if not predictions[0].hypotheses:
        raise ValueError("prediction carries no hypotheses")
    horizon = len(predictions[0].hypotheses[0].sequence)
    classes = np.full((len(predictions), num_hyps, horizon), grid.out_of_map_class, dtype=np.int64)
    for n, pred in enumerate(predictions):
        hyps = pred.hypotheses[:num_hyps]
        if not hyps:
            raise ValueError("prediction carries no hypotheses")
        try:
            classes[n, : len(hyps)] = [h.sequence for h in hyps]
        except ValueError as exc:
            raise ValueError(f"prediction {n}: hypotheses must all span {horizon} steps") from exc
    return classes


def _index_arrays(classes, truths, num_hyps: int, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices (w, l) of the first num_hyps of (N, K, H) candidate
    classes, (N, num_hyps, H, 2), and of the truths' flat classes, (N, T, 2);
    (0, 0) is out of map."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.ndim != 3:
        raise ValueError(f"expected (N, K, H) hypothesis classes, got shape {classes.shape}")
    if classes.shape[1] < num_hyps:
        raise ValueError(f"need {num_hyps} hypotheses per prediction, got {classes.shape[1]}")
    if len(classes) != len(truths):
        raise ValueError("predictions and truths must pair up")
    if not len(classes):
        raise ValueError("no predictions to score")
    truth = np.asarray(truths, dtype=np.int64).reshape(len(truths), -1)
    cand = np.stack(unflatten_indices(classes[:, :num_hyps], grid), axis=-1)
    return cand, np.stack(unflatten_indices(truth, grid), axis=-1)


def top_omega_mae(
    predictions: list[TrajectoryPrediction],
    truths: list[np.ndarray],
    omega: int,
    step: int,
    grid: GridSpec = GridSpec(),
    selection: str = "per_step",
) -> TopOmegaResult:
    """Errors at one future step (1-based, one per LABEL_STRIDE frames) over
    paired predictions and ground-truth flat-class sequences."""
    if omega < 1:
        raise ValueError("omega must be >= 1")
    cand, truth = _index_arrays(_hypothesis_classes(predictions, omega, grid), truths, omega, grid)
    return _score_step(cand, truth, omega, step, selection)


def _score_step(cand: np.ndarray, truth: np.ndarray, omega: int, step: int, selection: str) -> TopOmegaResult:
    """Top-omega errors at one step from the _index_arrays arrays."""
    if step < 1 or step > truth.shape[1]:
        raise ValueError(f"step {step} outside the labeled horizon")
    if step > cand.shape[2]:
        raise ValueError(f"step {step} beyond the predicted horizon")
    t = truth[:, None, step - 1]
    if selection == "per_step":
        c = cand[:, :omega, step - 1]
    else:
        c = cand[np.arange(len(cand)), _whole_trajectory_pick(cand, truth, omega), step - 1][:, None]
    diff = np.abs(c - t)
    c_in = c[..., 0] > 0
    dist = np.where(c_in, np.hypot(diff[..., 0], diff[..., 1]), np.inf)
    t_in = t[:, 0, 0] > 0
    has_candidate = c_in.any(axis=1)
    rows = np.flatnonzero(t_in & has_candidate)
    n = len(rows)
    truth_oom = int((~t_in).sum())
    no_candidate = int((t_in & ~has_candidate).sum())
    if n == 0:
        return TopOmegaResult(math.nan, math.nan, math.nan, 0, truth_oom, no_candidate)
    # argmin keeps the first (highest-ranked) candidate on ties
    best = np.argmin(dist[rows], axis=1)
    dxy = diff[rows, best]
    return TopOmegaResult(
        mae=float(dist[rows, best].sum() / n),
        mae_x=float(dxy[:, 0].sum() / n),
        mae_y=float(dxy[:, 1].sum() / n),
        n_evaluated=n,
        n_truth_out_of_map=truth_oom,
        n_no_candidate=no_candidate,
    )


def _whole_trajectory_pick(cand: np.ndarray, truth: np.ndarray, omega: int) -> np.ndarray:
    """Per example, the index of the single hypothesis among the first omega
    closest to the truth by mean distance over the steps where both are in
    map (ties keep the higher-ranked one; none comparable picks the first)."""
    steps = min(cand.shape[2], truth.shape[1])
    c, t = cand[:, :omega, :steps], truth[:, None, :steps]
    valid = (c[..., 0] > 0) & (t[..., 0] > 0)
    d = c - t
    total = np.where(valid, np.hypot(d[..., 0], d[..., 1]), 0.0).sum(axis=2)
    count = valid.sum(axis=2)
    score = np.where(count > 0, total / np.maximum(count, 1), np.inf)
    return np.argmin(score, axis=1)


@dataclass
class EvalReport:
    """Per (metric, omega, horizon) means in grid units, with per-cell
    evaluated counts and exclusion tallies."""

    omegas: tuple[int, ...]
    horizons_s: tuple[float, ...]
    selection: str
    label: str = ""
    values: dict = field(default_factory=dict)  # (metric, omega, horizon_s) -> float
    counts: dict = field(default_factory=dict)  # (omega, horizon_s) -> evaluated L
    excluded: dict = field(default_factory=dict)  # (omega, horizon_s) -> (truth_oom, no_candidate)

    def value(self, metric: str, omega: int, horizon_s: float) -> float:
        return self.values[(metric, omega, horizon_s)]


def evaluate(
    predict_fn,
    examples,
    config: EvalConfig = EvalConfig(),
    grid: GridSpec = GridSpec(),
    label: str = "",
) -> EvalReport:
    """Run predict_fn (inputs (M, 6) -> TrajectoryPrediction) on every test
    example and fill the full (metric, omega, horizon) table."""
    if not examples:
        raise ValueError("empty test set")
    predictions = [predict_fn(ex.inputs) for ex in examples]
    return score_predictions(predictions, [ex.labels for ex in examples], config, grid, label)


def score_predictions(
    predictions: list[TrajectoryPrediction],
    truths: list[np.ndarray],
    config: EvalConfig = EvalConfig(),
    grid: GridSpec = GridSpec(),
    label: str = "",
) -> EvalReport:
    """The full (metric, omega, horizon) table for paired predictions and
    ground-truth flat-class sequences: score_classes on their hypotheses."""
    max_omega = max(config.omegas)
    for pred in predictions:
        if len(pred.hypotheses) < max_omega:
            raise ValueError(
                f"need {max_omega} hypotheses per prediction, got {len(pred.hypotheses)}"
            )
    return score_classes(_hypothesis_classes(predictions, max_omega, grid), truths, config, grid, label)


def score_classes(
    classes: np.ndarray,
    truths,
    config: EvalConfig = EvalConfig(),
    grid: GridSpec = GridSpec(),
    label: str = "",
) -> EvalReport:
    """The full (metric, omega, horizon) table for (N, K, H) hypothesis flat
    classes, K per example in rank order, and the (N, H) ground-truth flat
    classes (an array, or a list of sequences)."""
    cand, truth = _index_arrays(classes, truths, max(config.omegas), grid)
    report = EvalReport(
        omegas=config.omegas, horizons_s=config.horizons_s, selection=config.selection, label=label
    )
    for omega in config.omegas:
        for horizon_s, step in zip(config.horizons_s, config.horizon_steps()):
            res = _score_step(cand, truth, omega, step, config.selection)
            report.values[("MAE", omega, horizon_s)] = res.mae
            report.values[("MAE_X", omega, horizon_s)] = res.mae_x
            report.values[("MAE_Y", omega, horizon_s)] = res.mae_y
            report.counts[(omega, horizon_s)] = res.n_evaluated
            report.excluded[(omega, horizon_s)] = (res.n_truth_out_of_map, res.n_no_candidate)
    return report


def render_report(report: EvalReport) -> tuple[str, str]:
    """(aligned text table, plot-ready CSV series).

    The CSV carries one (omega, delta_s, metric, value) row per table cell
    plus, per (omega, metric), the mean over horizons as delta_s=avg.
    """
    lines = []
    if report.label:
        lines.append(report.label)
    lines.append(f"candidate selection: {report.selection}")
    col_width = 12
    for metric in METRICS:
        lines.append("")
        lines.append(f"{metric} (grids)")
        header = "delta".ljust(8) + "".join(f"Omega={o}".rjust(col_width) for o in report.omegas)
        lines.append(header)
        for horizon_s in report.horizons_s:
            row = f"{horizon_s:.1f}s".ljust(8)
            for omega in report.omegas:
                row += f"{report.values[(metric, omega, horizon_s)]:.2f}".rjust(col_width)
            lines.append(row)
    excluded_total = sum(t for t, _ in report.excluded.values()) + sum(
        n for _, n in report.excluded.values()
    )
    counts = sorted(set(report.counts.values()))
    lines.append("")
    lines.append(f"evaluated examples per cell: {counts[0] if len(counts) == 1 else counts}")
    if excluded_total:
        worst = max(report.excluded.values())
        lines.append(f"exclusions per cell up to (truth out-of-map, no candidate) = {worst}")
    text = "\n".join(lines) + "\n"

    rows = ["omega,delta_s,metric,value"]
    for metric in METRICS:
        for omega in report.omegas:
            for horizon_s in report.horizons_s:
                rows.append(f"{omega},{horizon_s},{metric},{report.values[(metric, omega, horizon_s)]!r}")
            avg = float(np.mean([report.values[(metric, omega, h)] for h in report.horizons_s]))
            rows.append(f"{omega},avg,{metric},{avg!r}")
    series = "\n".join(rows) + "\n"
    return text, series
