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
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import datagen, kalman, metrics, nn, ogm, seq2seq, training

try:
    import resource
except ImportError:  # not on every platform (Windows)
    resource = None

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

# keys of settings that have one working value: config files written while
# they were settable still load if they set that value
_FIXED = {
    "model.input_dim": seq2seq.NUM_FEATURES,
    "eval.decode_period_s": seq2seq.FRAME_DT * seq2seq.LABEL_STRIDE,
    "kalman.dt": seq2seq.FRAME_DT,
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
        if key in _FIXED:
            if _parse_value(value, type(_FIXED[key]), key) != _FIXED[key]:
                raise ConfigError(f"section {section!r}: {name} is fixed at {_FIXED[key]}, got {value} ({where})")
            continue
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
    """Cross-field checks, run before any heavy work. eval --checkpoint
    makes them against the checkpoint's config instead (cmd_eval)."""
    if max(cfg.eval.omegas) > cfg.model.beam_width:
        raise ConfigError(
            f"eval omega {max(cfg.eval.omegas)} exceeds beam width {cfg.model.beam_width}"
        )
    max_step = max(cfg.eval.horizon_steps())
    if max_step > cfg.model.horizon:
        raise ConfigError(
            f"eval horizon needs {max_step} decode steps, model horizon is {cfg.model.horizon}"
        )
    need = cfg.model.obs_len + seq2seq.LABEL_STRIDE * cfg.model.horizon
    if cfg.data.frames_per_record < need:
        raise ConfigError(
            f"records of {cfg.data.frames_per_record} frames cannot hold a "
            f"{cfg.model.obs_len}+{seq2seq.LABEL_STRIDE}*{cfg.model.horizon} window ({need} frames)"
        )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def cmd_datagen(cfg: RunConfig, out_path: str) -> int:
    stages = _Stages()
    records, manifest = datagen.generate_dataset(cfg.data)
    stages.lap("generate")
    try:
        binding = datagen.write_dataset(records, out_path)
        datagen.write_manifest(manifest, out_path, dataset=binding)
    except OSError as exc:
        print(f"error: writing {out_path}: {exc}", file=sys.stderr)
        return 2
    stages.lap("write")
    positions = datagen.split_positions([rec.scenario_id for rec in records], manifest["splits"])
    print(f"wrote {len(records)} sequences to {out_path}")
    for name, pos in positions.items():
        counts = [training.window_count(records[i].frames.shape[0], cfg.model.obs_len, cfg.model.horizon) for i in pos]
        skipped = counts.count(0)
        note = f" ({skipped} records too short)" if skipped else ""
        print(f"  {name}: {len(pos)} sequences, {sum(counts)} usable windows{note}")
    stages.lap("count")
    stages.report("datagen", "records", len(records))
    return 0


def cmd_train(cfg: RunConfig, data_path: str, out_checkpoint: str, overfit: int | None) -> int:
    stages = _Stages()
    by_split, _ = datagen.read_dataset(data_path, splits=("train", "val"))
    stages.lap("read")
    train_windows, _ = training.crop_windows(by_split["train"], cfg.model.obs_len, cfg.model.horizon, cfg.model.grid)
    val_windows, _ = training.crop_windows(by_split["val"], cfg.model.obs_len, cfg.model.horizon, cfg.model.grid)
    stages.lap("crop")
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
    print(f"training on {len(train_windows)} windows, validating on {len(val_windows)} ({training.layout()})")

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
    with seq2seq.write_atomic(metrics_path, prefix=".metrics-") as f:
        f.write(result.trace_csv().encode("utf-8"))
    print(
        f"done ({result.stop_reason}): best val NLL {result.best_val_nll:.4f}; "
        f"checkpoint {out_checkpoint}, metrics {metrics_path}"
    )
    stages.lap("train")
    norms = np.array(result.grad_norms)
    stages.report(
        "train",
        "windows",
        len(train_windows) * result.trace[-1][0],
        shards=nn.shard_count(min(tconfig.batch_size, len(train_windows))),
        # null when no batch ran (train.max_epochs=0)
        grad_norm_mean=round(float(norms.mean()), 6) if norms.size else None,
        grad_norm_max=round(float(norms.max()), 6) if norms.size else None,
        clip_frac=round(float((norms > tconfig.grad_clip_norm).mean()), 6) if norms.size else None,
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
    stages = _Stages()
    params = seq2seq.load_checkpoint(checkpoint_path)
    records = datagen.read_dataset(data_path)
    if not records:
        print(f"error: {data_path}: no records to predict", file=sys.stderr)
        return 2
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
    stages.lap("read")
    if greedy:
        per_vehicle = [[h] for h in seq2seq.greedy_scene(params, windows, horizon)]
    else:
        per_vehicle = [p.hypotheses for p in seq2seq.predict_scene(params, windows, beam_width, horizon)]
    stages.lap("decode")
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
    with seq2seq.write_atomic(out_path, prefix=".predict-") as f:
        f.write("".join(lines).encode("utf-8"))
    print(f"wrote predictions for {len(records)} vehicles to {out_path}")
    stages.lap("write")
    stages.report("predict", "vehicles", len(records), shards=nn.shard_count(len(windows)))
    return 0


class _Stages:
    """Wall seconds per named stage; each lap ends the stage begun by the
    previous one."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._faults = _minor_faults()
        self._start = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = now - self._start
        self._start = now

    def report(self, command: str, items: str, count: int, **extra) -> None:
        """One JSON line on stderr: the stage seconds, the count of items
        the command processed and their rate over all stages, then extra,
        then minor_faults, the process's minor page faults since the stages
        began (left out where the resource module is missing)."""
        telemetry = {
            "command": command,
            "stage_s": {name: round(sec, 6) for name, sec in self.seconds.items()},
            items: count,
            f"{items}_per_s": round(count / sum(self.seconds.values()), 3),
            **extra,
        }
        if self._faults is not None:
            telemetry["minor_faults"] = _minor_faults() - self._faults
        print(json.dumps(telemetry), file=sys.stderr)


def _minor_faults() -> int | None:
    """The minor page faults of this process so far, all threads, or None
    without the resource module."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cmd_eval(
    cfg: RunConfig,
    data_path: str,
    checkpoint_path: str | None,
    use_kalman: bool,
    series_path: str | None,
) -> int:
    stages = _Stages()
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
        max_step = max(eval_cfg.horizon_steps())
        if max_step > model_cfg.horizon:
            raise ConfigError(
                f"eval.horizons_s needs {max_step} decode steps, checkpoint {checkpoint_path} "
                f"decodes {model_cfg.horizon}"
            )
        label = f"encoder-decoder checkpoint {checkpoint_path} (K={model_cfg.beam_width})"
    by_split, records_read = datagen.read_dataset(data_path, splits=("test",))
    test_records = by_split["test"]
    if not use_kalman:
        need = model_cfg.obs_len + seq2seq.LABEL_STRIDE * model_cfg.horizon
        longest = max((rec.frames.shape[0] for rec in test_records), default=need)
        if longest < need:
            raise ConfigError(
                f"test records of at most {longest} frames cannot hold checkpoint {checkpoint_path}'s "
                f"{model_cfg.obs_len}+{seq2seq.LABEL_STRIDE}*{model_cfg.horizon} window ({need} frames)"
            )
    stages.lap("read")

    grid = model_cfg.grid
    inputs, labels, too_short = training.crop_window_arrays(test_records, model_cfg.obs_len, model_cfg.horizon, grid)
    if not len(inputs):
        print("error: no usable test windows in the dataset's test split", file=sys.stderr)
        return 2
    stages.lap("crop")
    if use_kalman:
        classes = kalman.kf_forecast_rows(inputs, cfg.kalman, model_cfg.horizon, grid)[:, None]
        shards = 1
        stages.lap("forecast")
    else:
        classes = [[h.sequence for h in p.hypotheses] for p in seq2seq.predict_scene(params, inputs)]
        shards = nn.shard_count(len(inputs))
        stages.lap("decode")
    report = metrics.score_classes(classes, labels, eval_cfg, grid, label=label)
    stages.lap("score")
    text, series = metrics.render_report(report)
    print(text, end="")
    if series_path is None:
        series_path = data_path + ".series.csv"
    with seq2seq.write_atomic(series_path, prefix=".series-") as f:
        f.write(series.encode("utf-8"))
    print(f"series written to {series_path}")
    stages.lap("write")
    stages.report(
        "eval", "windows", len(inputs), records_too_short=too_short, shards=shards, records_read=records_read
    )
    return 0


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
            from . import verify

            return verify.run_battery(args.perturb_gradient)
        if args.command == "predict":
            if args.greedy and args.beam_width is not None:
                print("error: pass at most one of --greedy or --beam-width", file=sys.stderr)
                return 2
            return cmd_predict(
                args.checkpoint, args.data, args.out, args.beam_width, args.horizon, args.greedy
            )
        cfg = load_run_config(getattr(args, "config", None), getattr(args, "set", None))
        cfg = _apply_seed(cfg, getattr(args, "seed", None))
        if args.command == "eval" and args.omega:
            cfg = replace(cfg, eval=replace(cfg.eval, omegas=tuple(args.omega)))
        if not (args.command == "eval" and args.checkpoint is not None):
            validate_run_config(cfg)  # eval --checkpoint checks against the checkpoint's config
        if args.command == "datagen":
            return cmd_datagen(cfg, args.out)
        if args.command == "train":
            if args.overfit is not None and args.overfit < 1:
                raise ConfigError(f"--overfit needs N >= 1, got {args.overfit}")
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
