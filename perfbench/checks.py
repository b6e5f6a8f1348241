"""Output checks for the benchmark's commands.

Every check returns a list of problems; an empty list is a pass. The checks
read what the commands wrote (files and captured stdout) and, where an oracle
exists, recompute it with the library outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from gridcast import datagen, kalman, ogm, seq2seq, training

REPLAY_TOL = 1e-9


def check_exit(label: str, code) -> list[str]:
    return [] if code == 0 else [f"{label}: exit code {code!r}"]


def check_predictions(
    lines: list[dict], records, k: int, horizon: int, grid: ogm.GridSpec
) -> list[str]:
    """One line per dataset record, in order, each with k hypotheses sorted by
    descending finite log_prob and horizon cells inside the grid (null is
    out-of-map)."""
    problems = []
    if len(lines) != len(records):
        return [f"predict wrote {len(lines)} lines for {len(records)} vehicles"]
    for obj, rec in zip(lines, records):
        where = f"scenario {rec.scenario_id} vehicle {rec.vehicle_id}"
        if (obj.get("scenario_id"), obj.get("vehicle_id")) != (rec.scenario_id, rec.vehicle_id):
            problems.append(f"{where}: line is for {obj.get('scenario_id')}/{obj.get('vehicle_id')}")
            continue
        problems += [f"{where}: {p}" for p in check_hypotheses(obj.get("hypotheses", []), k, horizon, grid)]
    return problems


def check_hypotheses(hyps: list[dict], k: int, horizon: int, grid: ogm.GridSpec) -> list[str]:
    if len(hyps) != k:
        return [f"{len(hyps)} hypotheses, expected {k}"]
    problems = []
    log_probs = [h.get("log_prob") for h in hyps]
    if not all(isinstance(lp, (int, float)) and math.isfinite(lp) and lp <= 0.0 for lp in log_probs):
        problems.append(f"log_probs not finite and <= 0: {log_probs}")
    elif any(a < b for a, b in zip(log_probs, log_probs[1:])):
        problems.append(f"hypotheses not sorted by descending log_prob: {log_probs}")
    for n, h in enumerate(hyps):
        cells = h.get("cells", [])
        if len(cells) != horizon:
            problems.append(f"hypothesis {n}: {len(cells)} cells, expected {horizon}")
        bad = [c for c in cells if c is not None and not _in_grid(c, grid)]
        if bad:
            problems.append(f"hypothesis {n}: cells outside the {grid.q_w}x{grid.q_l} grid: {bad}")
    return problems


def _in_grid(cell, grid: ogm.GridSpec) -> bool:
    return (
        isinstance(cell, list)
        and len(cell) == 2
        and all(isinstance(v, int) for v in cell)
        and 1 <= cell[0] <= grid.q_w
        and 1 <= cell[1] <= grid.q_l
    )


def cells_to_classes(cells: list, grid: ogm.GridSpec) -> list[int]:
    return [ogm.flatten(ogm.OUT_OF_MAP if c is None else ogm.GridCell(*c), grid) for c in cells]


def check_beam_oracles(params: seq2seq.ModelParams, window: np.ndarray, greedy_line: dict) -> list[str]:
    """For one vehicle: beam K=1 equals the greedy output the command wrote,
    and every hypothesis of a full-width beam replays through decode_step to
    its reported log_prob. The model is on the default grid."""
    grid = ogm.GridSpec()
    summary = seq2seq.encode(params, window)
    greedy = greedy_line["hypotheses"][0]
    beam1 = seq2seq.beam_search_decode(params, summary, beam_width=1).hypotheses[0]
    problems = []
    if beam1.sequence != cells_to_classes(greedy["cells"], grid) or beam1.log_prob != greedy["log_prob"]:
        problems.append(
            f"beam K=1 {beam1.sequence} ({beam1.log_prob!r}) != greedy output "
            f"{cells_to_classes(greedy['cells'], grid)} ({greedy['log_prob']!r})"
        )
    beam = seq2seq.beam_search_decode(params, summary).hypotheses
    as_lines = [
        {"log_prob": h.log_prob, "cells": [_cell_json(q, grid) for q in h.sequence]} for h in beam
    ]
    problems += check_hypotheses(as_lines, params.config.beam_width, params.config.horizon, grid)
    problems += check_replay(params, summary, [(h.sequence, h.log_prob) for h in beam])
    return problems


def _cell_json(q: int, grid: ogm.GridSpec):
    cell = ogm.unflatten(q, grid)
    return [cell.w, cell.l] if cell.in_map else None


def check_replay(params: seq2seq.ModelParams, summary, hyps: list[tuple[list[int], float]]) -> list[str]:
    """Each (sequence, log_prob) replayed one decode_step at a time sums to
    its log_prob within REPLAY_TOL."""
    problems = []
    for n, (sequence, log_prob) in enumerate(hyps):
        state = seq2seq.decoder_initial_state(params, summary)
        prev = None
        total = 0.0
        for q in sequence:
            probs, state = seq2seq.decode_step(params, state, prev)
            total += math.log(probs[q - 1])
            prev = q
        if not abs(total - log_prob) <= REPLAY_TOL:
            problems.append(f"hypothesis {n}: replayed log_prob {total!r} != reported {log_prob!r}")
    return problems


def parse_series(text: str) -> dict[tuple[int, str, str], float]:
    """Eval series CSV -> {(omega, delta_s, metric): value}."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {(int(r["omega"]), r["delta_s"], r["metric"]): float(r["value"]) for r in rows}


def check_eval_series(text: str, omegas: tuple[int, ...]) -> list[str]:
    """Every table cell finite; MAE does not increase with Omega."""
    try:
        series = parse_series(text)
    except (KeyError, ValueError) as exc:
        return [f"unreadable eval series ({exc})"]
    if not series:
        return ["empty eval series"]
    if {o for o, _, _ in series} != set(omegas):
        return [f"eval series omegas {sorted({o for o, _, _ in series})} != {sorted(omegas)}"]
    problems = [f"non-finite {key}: {v!r}" for key, v in series.items() if not math.isfinite(v)]
    deltas = sorted({d for _, d, m in series if m == "MAE"})
    for delta in deltas:
        maes = [series[(o, delta, "MAE")] for o in sorted(omegas)]
        if any(b > a for a, b in zip(maes, maes[1:])):
            problems.append(f"MAE at {delta} increases with Omega: {maes}")
    return problems


def final_val_nll(metrics_csv: str) -> float:
    rows = list(csv.DictReader(io.StringIO(metrics_csv)))
    return float(rows[-1]["val_nll"]) if rows else math.nan


def check_train_metrics(metrics_csv: str, epochs: int, num_classes: int) -> list[str]:
    """One row per epoch plus epoch 0; the final validation NLL is finite and
    below the uniform-prediction NLL ln(num_classes)."""
    try:
        rows = list(csv.DictReader(io.StringIO(metrics_csv)))
        nll = final_val_nll(metrics_csv)
    except (KeyError, ValueError) as exc:
        return [f"unreadable metrics CSV ({exc})"]
    problems = []
    if [int(r["epoch"]) for r in rows] != list(range(epochs + 1)):
        problems.append(f"metrics CSV epochs {[r['epoch'] for r in rows]}, expected 0..{epochs}")
    if not (math.isfinite(nll) and nll < math.log(num_classes)):
        problems.append(f"final val NLL {nll!r} not finite and below ln {num_classes}")
    return problems


def check_dataset(path: str, records, manifest: dict) -> list[str]:
    """The written dataset and manifest equal the in-memory reference bit for
    bit."""
    try:
        got = datagen.read_dataset(path)
        got_manifest = datagen.read_manifest(path)
    except (OSError, ValueError) as exc:
        return [f"dataset unreadable ({exc})"]
    problems = []
    if len(got) != len(records):
        problems.append(f"dataset has {len(got)} records, expected {len(records)}")
    for a, b in zip(got, records):
        if (a.scenario_id, a.vehicle_id) != (b.scenario_id, b.vehicle_id) or not np.array_equal(a.frames, b.frames):
            problems.append(f"record {b.scenario_id}/{b.vehicle_id} differs from the generator's output")
            break
    if json.loads(json.dumps(manifest)) != got_manifest:
        problems.append("manifest differs from the generator's")
    return problems


def check_equal(label: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{label}: got {got!r}, expected {expected!r}"]


def kalman_reference(windows, horizons_s: tuple[float, ...], decode_period_s: float = 0.2) -> dict:
    """Top-1 MAE, MAE_X and MAE_Y of the constant-velocity forecast per
    horizon, computed here from kf_forecast and the grid indices alone:
    {(1, delta_s, metric): value}, steps where the truth or the forecast is
    out of map excluded."""
    grid = ogm.GridSpec()
    steps = [int(round(h / decode_period_s)) for h in horizons_s]
    forecasts = [kalman.kf_forecast(ex.inputs, kalman.CvModel(), max(steps), grid) for ex in windows]
    out = {}
    for horizon_s, step in zip(horizons_s, steps):
        d, dx, dy = [], [], []
        for ex, forecast in zip(windows, forecasts):
            truth = ogm.unflatten(int(ex.labels[step - 1]), grid)
            cand = ogm.unflatten(forecast[step - 1], grid)
            if truth.in_map and cand.in_map:
                d.append(math.hypot(cand.w - truth.w, cand.l - truth.l))
                dx.append(abs(cand.w - truth.w))
                dy.append(abs(cand.l - truth.l))
        n = len(d)
        for metric, values in (("MAE", d), ("MAE_X", dx), ("MAE_Y", dy)):
            out[(1, str(horizon_s), metric)] = sum(values) / n if n else math.nan
    return out


def check_series_matches(text: str, reference: dict, tol: float = 1e-12) -> list[str]:
    """Every reference cell is in the series and agrees within tol."""
    try:
        series = parse_series(text)
    except (KeyError, ValueError) as exc:
        return [f"unreadable eval series ({exc})"]
    problems = []
    for key, want in reference.items():
        got = series.get(key)
        if got is None or not abs(got - want) <= tol:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def held_out_windows(records, manifest: dict, obs_len: int, horizon: int) -> list:
    test_ids = set(manifest["splits"]["test"])
    windows, _ = training.crop_windows(
        [r for r in records if r.scenario_id in test_ids], obs_len, horizon, ogm.GridSpec()
    )
    return windows
