"""Command-line surface: data generation, training, prediction, evaluation,
and a fast self-verification battery.

Commands read one key-value config file (dotted section prefixes, e.g.
``model.cell_dim = 256``) with command-line overrides; every hyperparameter
has a named key. All commands are deterministic given (config, seed, inputs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import datagen, kalman, metrics, nn, ogm, seq2seq, training

__all__ = ["RunConfig", "ConfigError", "load_run_config", "validate_run_config", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Union of all module configurations plus the run seed. The grid.*
    keys set model.grid: the grid defines the model's output classes."""

    model: seq2seq.ModelConfig = field(default_factory=seq2seq.ModelConfig)
    train: training.TrainConfig = field(default_factory=training.TrainConfig)
    data: datagen.ScenarioConfig = field(default_factory=datagen.ScenarioConfig)
    eval: metrics.EvalConfig = field(default_factory=metrics.EvalConfig)
    kalman: kalman.CvModel = field(default_factory=kalman.CvModel)
    seed: int = 0


_SECTIONS = {
    "grid": ogm.GridSpec,
    "model": seq2seq.ModelConfig,
    "train": training.TrainConfig,
    "data": datagen.ScenarioConfig,
    "eval": metrics.EvalConfig,
    "kalman": kalman.CvModel,
}


def _parse_value(raw: str, typ, key: str):
    import types
    import typing

    raw = raw.strip()
    base = typ
    if typing.get_origin(typ) in (typing.Union, types.UnionType):  # X | None
        base = next(a for a in typing.get_args(typ) if a is not type(None))
    try:
        if base is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected true/false")
        if base is int:
            return int(raw)
        if base is float:
            return float(raw)
        if base is str:
            return raw
        if typing.get_origin(base) is tuple:
            inner = (typing.get_args(base) or (float,))[0]
            return tuple(inner(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
    raise ConfigError(f"config key {key}: unsupported field type {typ}")


def load_run_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus
    ``section.key=value`` override strings."""
    pairs: list[tuple[str, str, str]] = []  # (key, value, where)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    stripped = line.split("#", 1)[0].strip()
                    if not stripped:
                        continue
                    if "=" not in stripped:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, value = stripped.split("=", 1)
                    pairs.append((key.strip(), value.strip(), f"{path}:{lineno}"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip(), "command line"))

    section_overrides: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    seed: int | None = None
    for key, value, where in pairs:
        if key == "seed":
            seed = _parse_value(value, int, key)
            continue
        if "." not in key:
            raise ConfigError(f"{where}: key {key!r} needs a section prefix (e.g. model.cell_dim)")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"{where}: unknown section {section!r}")
        # model.grid is built from the grid.* keys, not set directly
        fields = {f.name for f in dataclasses.fields(_SECTIONS[section])} - {"grid"}
        if name not in fields:
            raise ConfigError(f"{where}: unknown key {name!r} in section {section!r}")
        section_overrides[section][name] = _parse_value(value, _resolve_type(_SECTIONS[section], name), key)

    _derive_grid_ranges(section_overrides["grid"])
    cfg = RunConfig()
    for section, values in section_overrides.items():
        if values:
            try:
                if section == "grid":
                    cfg = replace(cfg, model=replace(cfg.model, grid=replace(cfg.model.grid, **values)))
                else:
                    cfg = replace(cfg, **{section: replace(getattr(cfg, section), **values)})
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"section {section!r}: {exc}") from exc
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _derive_grid_ranges(g: dict) -> None:
    """Overriding grid dimensions without the ranges implies a consistent
    geometry: x_max from the cell count, lateral span centered on y = 0."""
    default = ogm.GridSpec()
    if {"q_w", "cell_len", "x_min"} & g.keys() and "x_max" not in g:
        x_min = g.get("x_min", default.x_min)
        g["x_max"] = x_min + g.get("q_w", default.q_w) * g.get("cell_len", default.cell_len)
    if {"q_l", "cell_wid"} & g.keys() and not {"y_min", "y_max", "lateral_origin"} & g.keys():
        half = g.get("q_l", default.q_l) * g.get("cell_wid", default.cell_wid) / 2.0
        g["lateral_origin"] = -half
        g["y_min"] = -half
        g["y_max"] = half


def _resolve_type(cls, name: str):
    import typing

    hints = typing.get_type_hints(cls)
    return hints[name]


def _apply_seed(cfg: RunConfig, seed: int | None) -> RunConfig:
    if seed is None:
        return cfg
    return replace(
        cfg,
        seed=seed,
        data=replace(cfg.data, seed=seed),
        train=replace(cfg.train, seed=seed),
    )


def validate_run_config(cfg: RunConfig) -> None:
    """Cross-field checks, run before any heavy work."""
    if max(cfg.eval.omegas) > cfg.model.beam_width:
        raise ConfigError(
            f"eval omega {max(cfg.eval.omegas)} exceeds beam width {cfg.model.beam_width}"
        )
    max_step = max(cfg.eval.horizon_steps())
    if max_step > cfg.model.horizon:
        raise ConfigError(
            f"eval horizon needs {max_step} decode steps, model horizon is {cfg.model.horizon}"
        )
    need = cfg.model.obs_len + training.LABEL_STRIDE * cfg.model.horizon
    if cfg.data.frames_per_record < need:
        raise ConfigError(
            f"records of {cfg.data.frames_per_record} frames cannot hold a "
            f"{cfg.model.obs_len}+2*{cfg.model.horizon} window ({need} frames)"
        )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _split_records(records, manifest):
    splits = manifest["splits"]
    by_split = {name: [] for name in ("train", "val", "test")}
    for rec in records:
        for name in by_split:
            if rec.scenario_id in splits[name]:
                by_split[name].append(rec)
    return by_split


def cmd_datagen(cfg: RunConfig, out_path: str) -> int:
    records, manifest = datagen.generate_dataset(cfg.data)
    try:
        datagen.write_dataset(records, out_path)
        datagen.write_manifest(manifest, out_path)
    except OSError as exc:
        print(f"error: writing {out_path}: {exc}", file=sys.stderr)
        return 2
    by_split = _split_records(records, manifest)
    print(f"wrote {len(records)} sequences to {out_path}")
    for name in ("train", "val", "test"):
        recs = by_split[name]
        windows, skipped = training.crop_windows(recs, cfg.model.obs_len, cfg.model.horizon, cfg.model.grid)
        note = f" ({skipped} records too short)" if skipped else ""
        print(f"  {name}: {len(recs)} sequences, {len(windows)} usable windows{note}")
    return 0


def cmd_train(cfg: RunConfig, data_path: str, out_checkpoint: str, overfit: int | None) -> int:
    records = datagen.read_dataset(data_path)
    manifest = datagen.read_manifest(data_path)
    by_split = _split_records(records, manifest)
    train_windows, _ = training.crop_windows(by_split["train"], cfg.model.obs_len, cfg.model.horizon, cfg.model.grid)
    val_windows, _ = training.crop_windows(by_split["val"], cfg.model.obs_len, cfg.model.horizon, cfg.model.grid)
    if not train_windows or not val_windows:
        print("error: dataset yields no usable training or validation windows", file=sys.stderr)
        return 2

    tconfig = cfg.train
    if overfit is not None:
        train_windows = train_windows[:overfit]
        val_windows = train_windows  # memorization: validate on the train windows
        # plateau halving off: it throttles the rate mid-memorization
        tconfig = replace(
            tconfig,
            batch_size=min(tconfig.batch_size, len(train_windows)),
            max_epochs=2000,
            plateau_patience=2000,
            early_stop_patience=2000,
            target_val_nll=0.1,
        )
        print(f"overfit mode: {len(train_windows)} windows, stop at per-step NLL 0.1")
    print(f"training on {len(train_windows)} windows, validating on {len(val_windows)}")

    metrics_path = out_checkpoint + ".metrics.csv"

    def on_epoch(epoch, train_nll, val_nll, lr, params, is_best):
        if is_best:
            seq2seq.save_checkpoint(params, out_checkpoint)
        print(f"epoch {epoch}: train {train_nll:.4f}  val {val_nll:.4f}  lr {lr:.6f}")

    try:
        result = training.train(cfg.model, train_windows, val_windows, tconfig, on_epoch=on_epoch)
    except training.TrainingDiverged as exc:
        print(f"error: training diverged ({exc})", file=sys.stderr)
        if exc.best_params is not None:
            seq2seq.save_checkpoint(exc.best_params, out_checkpoint)
            print(f"last good checkpoint kept at {out_checkpoint}", file=sys.stderr)
        return 3
    seq2seq.save_checkpoint(result.params, out_checkpoint)
    seq2seq.write_atomic(metrics_path, result.trace_csv().encode("utf-8"), prefix=".metrics-")
    print(
        f"done ({result.stop_reason}): best val NLL {result.best_val_nll:.4f}; "
        f"checkpoint {out_checkpoint}, metrics {metrics_path}"
    )
    return 0


def cmd_predict(
    checkpoint_path: str,
    data_path: str,
    out_path: str,
    beam_width: int | None,
    horizon: int | None,
    greedy: bool,
) -> int:
    params = seq2seq.load_checkpoint(checkpoint_path)
    records = datagen.read_dataset(data_path)
    obs_len = params.config.obs_len
    for rec in records:
        if rec.frames.shape[0] < obs_len:
            print(
                f"error: scenario {rec.scenario_id} vehicle {rec.vehicle_id}: "
                f"{rec.frames.shape[0]} frames < observation length {obs_len}",
                file=sys.stderr,
            )
            return 2
    windows = [rec.frames[-obs_len:] for rec in records]
    if greedy:
        # one vehicle at a time: the output is bit-identical to a
        # single-vehicle beam of width 1
        per_vehicle = [[seq2seq.greedy_decode(params, seq2seq.encode(params, w), horizon)] for w in windows]
    else:
        per_vehicle = [p.hypotheses for p in seq2seq.predict_scene(params, windows, beam_width, horizon)]
    lines = []
    for rec, hyps in zip(records, per_vehicle):
        w, l = ogm.unflatten_indices([h.sequence for h in hyps], params.config.grid)
        obj = {
            "scenario_id": rec.scenario_id,
            "vehicle_id": rec.vehicle_id,
            "hypotheses": [
                {"log_prob": h.log_prob, "cells": [[a, b] if a else None for a, b in zip(ws, ls)]}
                for h, ws, ls in zip(hyps, w.tolist(), l.tolist())
            ],
        }
        lines.append(json.dumps(obj) + "\n")
    seq2seq.write_atomic(out_path, "".join(lines).encode("utf-8"), prefix=".predict-")
    print(f"wrote predictions for {len(records)} vehicles to {out_path}")
    return 0


def cmd_eval(
    cfg: RunConfig,
    data_path: str,
    checkpoint_path: str | None,
    use_kalman: bool,
    series_path: str | None,
) -> int:
    records = datagen.read_dataset(data_path)
    manifest = datagen.read_manifest(data_path)
    test_records = _split_records(records, manifest)["test"]
    eval_cfg = cfg.eval
    if use_kalman:
        model_cfg = cfg.model
        # single hypothesis: only omega = 1 applies
        eval_cfg = replace(eval_cfg, omegas=(1,))
        label = "Kalman constant-velocity baseline"
    else:
        params = seq2seq.load_checkpoint(checkpoint_path)
        model_cfg = params.config
        if max(eval_cfg.omegas) > model_cfg.beam_width:
            raise ConfigError(
                f"eval omega {max(eval_cfg.omegas)} exceeds beam width {model_cfg.beam_width}"
            )
        label = f"encoder-decoder checkpoint {checkpoint_path} (K={model_cfg.beam_width})"

    grid = model_cfg.grid
    test_windows, _ = training.crop_windows(test_records, model_cfg.obs_len, model_cfg.horizon, grid)
    if not test_windows:
        print("error: no usable test windows in the dataset's test split", file=sys.stderr)
        return 2
    inputs = [w.inputs for w in test_windows]
    if use_kalman:
        predictions = [
            seq2seq.TrajectoryPrediction(
                hypotheses=[seq2seq.BeamHypothesis(kalman.kf_forecast(x, cfg.kalman, model_cfg.horizon, grid), 0.0)]
            )
            for x in inputs
        ]
    else:
        predictions = seq2seq.predict_scene(params, inputs)
    report = metrics.score_predictions(predictions, [w.labels for w in test_windows], eval_cfg, grid, label=label)
    text, series = metrics.render_report(report)
    print(text, end="")
    if series_path is None:
        series_path = data_path + ".series.csv"
    seq2seq.write_atomic(series_path, series.encode("utf-8"), prefix=".series-")
    print(f"series written to {series_path}")
    return 0


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def _tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=2, seed=0, beam_width=4):
    config = seq2seq.ModelConfig(
        cell_dim=cell_dim, grid=ogm.GridSpec.custom(q_w, q_l), obs_len=obs_len, horizon=horizon, beam_width=beam_width
    )
    params = seq2seq.init_model_params(config, seed=seed)
    return config, params


def _check_lstm_gradient(perturb: float) -> tuple[bool, str]:
    # seed chosen so every gradient coordinate is large enough for the
    # finite-difference oracle (its absolute noise floor is ~1e-10 at h=1e-5)
    rng = np.random.default_rng(39)
    cell, dim, steps = 4, 3, 5
    p = nn.init_lstm(rng, cell, dim)
    p.b[...] = rng.uniform(-0.5, 0.5, size=p.b.shape)
    inputs = rng.standard_normal((steps, 1, dim))
    target = rng.standard_normal((1, cell))
    shapes = [("w_u", p.w_u.shape), ("w_h", p.w_h.shape), ("b", p.b.shape)]
    sizes = [int(np.prod(s)) for _, s in shapes]

    def f(vec):
        offset = 0
        for (name, shape), size in zip(shapes, sizes):
            getattr(p, name)[...] = vec[offset : offset + size].reshape(shape)
            offset += size
        state = nn.LstmState.zeros(1, cell)
        tapes = []
        for t in range(steps):
            state, tape = nn.lstm_forward(p, inputs[t], state)
            tapes.append(tape)
        diff = state.h - target
        value = 0.5 * float(np.vdot(diff, diff))
        grads_total = {name: np.zeros(shape) for name, shape in shapes}
        dc, dh = np.zeros((1, cell)), diff
        for t in range(steps - 1, -1, -1):
            cell_grads, grad_prev, _ = nn.lstm_backward(p, tapes[t], dc, dh)
            for name, _ in shapes:
                grads_total[name] += cell_grads[name]
            dc, dh = grad_prev.c, grad_prev.h
        flat = np.concatenate([grads_total[name].ravel() for name, _ in shapes])
        if perturb:
            flat = flat * (1.0 + perturb)
        return value, flat

    x0 = np.concatenate([getattr(p, name).ravel() for name, _ in shapes])
    _, g0 = f(x0)
    if float(np.min(np.abs(g0))) < 1e-4:
        return False, "degenerate check point (tiny gradient coordinate)"
    err = nn.gradient_check(f, x0, h=1e-5)
    return err < 1e-6, f"max relative error {err:.3e}"


def _check_full_model_gradient() -> tuple[bool, str]:
    config, params = _tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=2, horizon=2, seed=3)
    rng = np.random.default_rng(11)
    # randomize every tensor (positive biases keep relu units and gates live)
    for name, a in params.param_items():
        if name.endswith(".bias") or name.endswith(".b"):
            a[...] = rng.uniform(0.05, 0.4, size=a.shape)
        else:
            a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    examples = [
        training.TrainingExample(
            inputs=rng.standard_normal((config.obs_len, 6)),
            labels=rng.integers(1, config.num_classes + 1, size=config.horizon),
        )
        for _ in range(2)
    ]
    f, f_value = training.make_loss_fn(params, examples)
    x0 = training.get_flat_params(params)
    _, analytic = f(x0)
    numeric = nn.central_differences(f_value, x0, 1e-5)
    err = float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)))
    return err < 1e-6, f"max error relative to gradient scale {err:.3e}"


def _check_beam_exhaustive() -> tuple[bool, str]:
    config, params = _tiny_model(cell_dim=4, q_w=3, q_l=1, obs_len=3, horizon=3, seed=5, beam_width=64)
    rng = np.random.default_rng(5)
    for name, a in params.param_items():
        a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    summary = seq2seq.encode(params, rng.standard_normal((config.obs_len, 6)))
    result = seq2seq.beam_search_decode(params, summary, beam_width=64, horizon=3)

    scored = []
    for seq in product(range(1, config.num_classes + 1), repeat=3):
        state = seq2seq.decoder_initial_state(params, summary)
        u = seq2seq.start_input(params, 1)
        lp = 0.0
        for q in seq:
            logits, state, _ = seq2seq.decode_core(params, state, u, False)
            lp += float(nn.log_softmax(logits)[0, q - 1])
            u = seq2seq.embed_tokens(params, np.array([q]))
        scored.append((list(seq), lp))
    scored.sort(key=lambda item: -item[1])
    ok, lp_err = _same_ranking(
        [(h.sequence, h.log_prob) for h in result.hypotheses], scored
    )
    return ok and lp_err < 1e-9, f"ranking match {ok}, log-prob error {lp_err:.3e}"


def _same_ranking(got, expected) -> tuple[bool, float]:
    """Orderings agree by score; exactly-tied scores compare as sets."""
    if len(got) != len(expected):
        return False, math.inf
    lp_err = max(abs(g[1] - e[1]) for g, e in zip(got, expected))

    def groups(items):
        out, current, score = [], [], None
        for seq, lp in items:
            if score is None or lp == score:
                current.append(tuple(seq))
            else:
                out.append(set(current))
                current = [tuple(seq)]
            score = lp
        if current:
            out.append(set(current))
        return out

    return groups(got) == groups(expected), lp_err


def _check_beam_greedy_equivalence() -> tuple[bool, str]:
    mismatches = 0
    for seed in range(20):
        config, params = _tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=4, seed=seed)
        rng = np.random.default_rng(100 + seed)
        summary = seq2seq.encode(params, rng.standard_normal((config.obs_len, 6)))
        greedy = seq2seq.greedy_decode(params, summary)
        beam = seq2seq.beam_search_decode(params, summary, beam_width=1).hypotheses[0]
        if greedy.sequence != beam.sequence or greedy.log_prob != beam.log_prob:
            mismatches += 1
    return mismatches == 0, f"{mismatches} mismatches over 20 models"


def _check_quantize_roundtrip() -> tuple[bool, str]:
    grid = ogm.GridSpec()
    bad = 0
    for q in range(1, grid.num_classes + 1):
        cell = ogm.unflatten(q, grid)
        if ogm.flatten(cell, grid) != q:
            bad += 1
        if cell.in_map:
            x, y = ogm.cell_center(cell, grid)
            if ogm.quantize(x, y, grid) != cell:
                bad += 1
    edge_cases = [
        ((2.0, 0.0), ogm.GridCell(1, 11)),
        ((185.0, 0.0), ogm.OUT_OF_MAP),
        ((0.0, -9.1875), ogm.GridCell(1, 1)),
        ((0.0, 9.2), ogm.GridCell(1, 21)),
        ((180.0, 0.0), ogm.OUT_OF_MAP),
    ]
    for (x, y), expected in edge_cases:
        if ogm.quantize(x, y, grid) != expected:
            bad += 1
    return bad == 0, f"{bad} failures over {grid.num_classes} classes + edges"


def _check_softmax() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        logits = rng.standard_normal(757) * rng.uniform(0.1, 50)
        probs = nn.softmax(logits)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
        if probs.min() < 0:
            return False, "negative probability"
        shifted = nn.softmax(logits + 123.456)
        worst = max(worst, float(np.max(np.abs(shifted - probs))))
    big = nn.softmax(np.array([1000.0, 0.0]))
    if not np.isfinite(big).all():
        return False, "overflow on extreme logits"
    return worst < 1e-9, f"max deviation {worst:.3e}"


def _check_kalman_cv() -> tuple[bool, str]:
    grid = ogm.GridSpec()
    model = kalman.CvModel()
    x0, y0, vx, vy = 30.0, -1.0, 8.0, 0.4
    t = np.arange(30) * 0.1
    frames = np.column_stack(
        [np.full(30, 25.0), np.zeros(30), x0 + vx * t, y0 + vy * t, np.full(30, vx), np.full(30, vy)]
    )
    forecast = kalman.kf_forecast(frames, model, horizon=10, grid=grid)
    truth = []
    for j in range(1, 11):
        tj = t[-1] + 0.2 * j
        truth.append(ogm.flatten(ogm.quantize(x0 + vx * tj, y0 + vy * tj, grid), grid))
    ok = forecast == truth
    return ok, "forecast equals ground truth" if ok else f"mismatch {forecast} vs {truth}"


def cmd_verify(grad_perturbation: float = 0.0) -> int:
    """Fast correctness battery; grad_perturbation is a negative-control hook
    that corrupts the analytic LSTM gradient by the given relative amount."""
    checks = [
        ("lstm-bptt-gradient-vs-finite-difference", lambda: _check_lstm_gradient(grad_perturbation)),
        ("full-model-gradient-vs-finite-difference", _check_full_model_gradient),
        ("beam-search-vs-exhaustive-enumeration", _check_beam_exhaustive),
        ("beam-width-1-equals-greedy", _check_beam_greedy_equivalence),
        ("grid-quantization-roundtrip", _check_quantize_roundtrip),
        ("softmax-probability-contract", _check_softmax),
        ("kalman-constant-velocity-exactness", _check_kalman_cv),
    ]
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    p.add_argument("--seed", type=int, help="override the run seed (and data/train seeds)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic highway dataset")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="dataset output path (JSON lines)")

    p = sub.add_parser("train", help="train the encoder-decoder")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--overfit", type=int, metavar="N", help="memorization run on N windows")

    p = sub.add_parser("predict", help="emit beam-search hypotheses for each vehicle")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset path with observation frames")
    p.add_argument("--out", required=True, help="hypotheses output path (JSON lines)")
    p.add_argument("--beam-width", type=int, help="override beam width K")
    p.add_argument("--horizon", type=int, help="override decode steps")
    p.add_argument("--greedy", action="store_true", help="greedy decoding (single hypothesis)")

    p = sub.add_parser("eval", help="Top-N MAE report on the test split")
    _add_config_args(p)
    p.add_argument("--checkpoint", help="trained checkpoint to evaluate")
    p.add_argument("--kalman", action="store_true", help="evaluate the Kalman baseline instead")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--omega", type=int, action="append", help="candidate count (repeatable)")
    p.add_argument("--out-series", help="plot series CSV path")

    p = sub.add_parser("verify", help="run the fast correctness battery")
    p.add_argument("--perturb-gradient", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.perturb_gradient)
        if args.command == "predict":
            return cmd_predict(
                args.checkpoint, args.data, args.out, args.beam_width, args.horizon, args.greedy
            )
        cfg = load_run_config(getattr(args, "config", None), getattr(args, "set", None))
        cfg = _apply_seed(cfg, getattr(args, "seed", None))
        if args.command == "eval" and args.omega:
            cfg = replace(cfg, eval=replace(cfg.eval, omegas=tuple(args.omega)))
        validate_run_config(cfg)
        if args.command == "datagen":
            return cmd_datagen(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.data, args.out, args.overfit)
        if args.command == "eval":
            if args.kalman == (args.checkpoint is not None):
                print("error: pass exactly one of --checkpoint or --kalman", file=sys.stderr)
                return 2
            return cmd_eval(cfg, args.data, args.checkpoint, args.kalman, args.out_series)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, FloatingPointError, seq2seq.CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
