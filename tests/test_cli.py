"""Command-line surface: config parsing and validation, the full
datagen -> train -> predict -> eval pipeline at toy scale, verify battery."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast import cli, datagen, kalman, metrics, nn, ogm, seq2seq, training
from gridcast.cli import _SECTIONS, ConfigError, RunConfig, load_run_config, main, validate_run_config

# a toy setup that trains in seconds: 6x3 grid, 4-dim cells, 1 s window
TOY = [
    "grid.q_w=6", "grid.q_l=3",
    "model.cell_dim=8",
    "model.obs_len=10", "model.horizon=3", "model.beam_width=4",
    "eval.omegas=1,3", "eval.horizons_s=0.2,0.6",
    "data.n_scenarios=8", "data.vehicles_per_scenario=2", "data.frames_per_record=20",
    "train.batch_size=16", "train.max_epochs=2",
]


def toy_args(*extra):
    out = []
    for item in TOY + list(extra):
        out += ["--set", item]
    return out


class TestConfigParsing:
    def test_defaults(self):
        cfg = load_run_config()
        assert cfg.model.cell_dim == 256
        assert cfg.train.lr0 == 0.0008
        assert cfg.eval.omegas == (1, 3, 5)

    def test_file_and_overrides(self, tmp_path):
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as f:
            f.write("# comment line\n")
            f.write("model.cell_dim = 64\n")
            f.write("seed = 5\n")
            f.write("eval.omegas = 1, 3\n")
            f.write("data.p_lane_keep = 0.55\n")
            f.write("data.p_lane_change = 0.05\n")
        cfg = load_run_config(path, ["model.cell_dim=32"])
        assert cfg.model.cell_dim == 32  # command line wins
        assert cfg.seed == 5
        assert cfg.eval.omegas == (1, 3)
        assert cfg.data.p_lane_keep == 0.55

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(None, ["nosuch.key=1"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(None, ["model.nosuch=1"])

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            load_run_config(None, ["model.cell_dim=abc"])

    def test_bad_seed_names_the_key(self, tmp_path, capsys):
        path = str(tmp_path / "run.cfg")
        with open(path, "w") as f:
            f.write("seed = abc\n")
        for args in (["--set", "seed=abc"], ["--config", path]):
            assert main(["datagen", "--out", str(tmp_path / "x.jsonl")] + args) == 2
            assert "error: config key seed: invalid literal" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x.jsonl")

    def test_section_validation_surfaces(self):
        with pytest.raises(ConfigError, match="maneuver mix"):
            load_run_config(None, ["data.p_lane_keep=0.9"])

    def test_bool_parsing(self):
        cfg = load_run_config(None, ["model.copy_hidden_state=false"])
        assert cfg.model.copy_hidden_state is False

    def test_optional_field_parsing(self):
        cfg = load_run_config(None, ["train.target_val_nll=0.1"])
        assert cfg.train.target_val_nll == 0.1

    def test_shipped_example_config_is_valid_defaults(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "example.cfg")
        cfg = load_run_config(path)
        validate_run_config(cfg)
        assert cfg == load_run_config()  # keys document the defaults exactly
        with open(path, encoding="utf-8") as f:
            keys = {line.split("#", 1)[0].split("=", 1)[0].strip() for line in f} - {""}
        settable = {"seed"} | {
            f"{section}.{f.name}" for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
        }
        # model.grid is built from the grid.* keys; an unset target_val_nll
        # has no config spelling, so the file shows it commented out
        assert keys == settable - {"model.grid", "train.target_val_nll"}


class TestValidation:
    def test_omega_exceeding_beam_width(self):
        cfg = load_run_config(None, ["model.beam_width=2"])
        with pytest.raises(ConfigError, match="beam width"):
            validate_run_config(cfg)

    def test_horizon_exceeding_decode_steps(self):
        cfg = load_run_config(None, ["model.horizon=4"])
        with pytest.raises(ConfigError, match="horizon"):
            validate_run_config(cfg)

    def test_model_grid_dims_are_unknown_keys(self, tmp_path, capsys):
        # the grid.* keys are the only way to set the model's grid
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(None, ["model.q_w=35"])
        assert main(["datagen", "--out", str(tmp_path / "x.jsonl"), "--set", "model.q_w=35"]) == 2
        assert "unknown key 'q_w'" in capsys.readouterr().err

    def test_grid_keys_set_the_model_grid(self):
        cfg = load_run_config(None, ["grid.q_w=6", "grid.cell_len=4.0"])
        assert cfg.model.grid.x_max == 24.0
        assert cfg.model.num_classes == 6 * 21 + 1

    def test_records_too_short(self):
        cfg = load_run_config(None, ["data.frames_per_record=40"])
        with pytest.raises(ConfigError, match="window"):
            validate_run_config(cfg)

    def test_default_config_valid(self):
        validate_run_config(load_run_config())

    def test_invalid_mix_exits_2(self, capsys):
        rc = main(["datagen", "--out", "/tmp/x.jsonl", "--set", "data.p_lane_keep=0.9"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting", ["data.vehicles_per_scenario=0", "data.vehicles_per_scenario=-1", "data.frames_per_record=1"]
    )
    def test_empty_or_frameless_scenarios_exit_2(self, tmp_path, capsys, setting):
        out = tmp_path / "x.jsonl"
        assert main(["datagen", "--out", str(out), "--set", setting]) == 2
        field = setting.split(".")[1].split("=")[0]
        assert f"error: section 'data': {field} must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("data.ego_yaw_std=-0.5", "ego_yaw_std must be non-negative, got -0.5"),
            ("data.speed_jitter_std=-0.1", "speed_jitter_std must be non-negative, got -0.1"),
            ("data.speed_min=40", "speed_min = 40.0 exceeds speed_max = 35.0"),
        ],
    )
    def test_bad_vehicle_motion_exits_2(self, tmp_path, capsys, setting, message):
        out = tmp_path / "x.jsonl"
        assert main(["datagen", "--out", str(out), "--set", setting]) == 2
        assert capsys.readouterr().err == f"error: section 'data': {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings", [("data.ego_yaw_std=0", "data.speed_jitter_std=0"), ("data.speed_min=30", "data.speed_max=30")]
    )
    def test_zero_ou_std_and_constant_speed_accepted(self, tmp_path, settings):
        out = str(tmp_path / "x.jsonl")
        assert main(["datagen", "--out", out, "--set", "data.n_scenarios=3", *(a for x in settings for a in ("--set", x))]) == 0
        assert len(datagen.read_dataset(out)) == 15


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    data = os.path.join(d, "data.jsonl")
    ckpt = os.path.join(d, "model.ckpt")
    rc = main(["datagen", "--out", data, "--seed", "3"] + toy_args())
    assert rc == 0
    rc = main(["train", "--data", data, "--out", ckpt, "--seed", "3"] + toy_args())
    assert rc == 0
    return {"dir": d, "data": data, "ckpt": ckpt}


class TestPipeline:
    def test_datagen_outputs(self, workdir, capsys):
        assert os.path.exists(workdir["data"])
        manifest = datagen.read_manifest(workdir["data"])
        assert set(manifest["splits"]) == {"train", "val", "test"}

    def test_datagen_deterministic_manifest(self, workdir, tmp_path):
        other = os.path.join(tmp_path, "again.jsonl")
        rc = main(["datagen", "--out", other, "--seed", "3"] + toy_args())
        assert rc == 0
        assert open(other, "rb").read() == open(workdir["data"], "rb").read()
        assert (
            open(other + ".manifest.json", "rb").read()
            == open(workdir["data"] + ".manifest.json", "rb").read()
        )

    def test_datagen_default_scale(self, tmp_path, capsys):
        # defaults: 30 scenarios x 5 vehicles x 13 windows, ~22 train
        # scenarios -> ~1400 usable training windows
        data = os.path.join(tmp_path, "default.jsonl")
        rc = main(["datagen", "--out", data])
        assert rc == 0
        out = capsys.readouterr().out
        train_line = next(line for line in out.splitlines() if line.strip().startswith("train:"))
        windows = int(train_line.split(",")[1].split()[0])
        assert 1100 <= windows <= 1700

    def test_datagen_counts_equal_the_cropped_windows(self, tmp_path, capsys):
        real = datagen.generate_dataset

        def with_short_records(config):
            records, manifest = real(config)
            records[0].frames = records[0].frames[:15]  # one frame short of a window
            records[3].frames = records[3].frames[:17]  # two windows
            return records, manifest

        data = str(tmp_path / "data.jsonl")
        with mock.patch.object(datagen, "generate_dataset", with_short_records):
            assert main(["datagen", "--out", data, "--seed", "3"] + toy_args()) == 0
        out = capsys.readouterr().out
        records, splits = datagen.read_dataset(data), datagen.read_manifest(data)["splits"]
        grid = load_run_config(None, TOY).model.grid
        expected = [f"wrote {len(records)} sequences to {data}"]
        for name in ("train", "val", "test"):
            recs = [r for r in records if r.scenario_id in splits[name]]
            windows, too_short = training.crop_windows(recs, 10, 3, grid)
            note = f" ({too_short} records too short)" if too_short else ""
            expected.append(f"  {name}: {len(recs)} sequences, {len(windows)} usable windows{note}")
        assert out == "\n".join(expected) + "\n"
        assert out.count("(1 records too short)") == 1

    def test_datagen_telemetry_line(self, tmp_path, capsys):
        data = str(tmp_path / "data.jsonl")
        assert main(["datagen", "--out", data, "--seed", "3"] + toy_args()) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == f"wrote 16 sequences to {data}"
        [line] = captured.err.splitlines()
        telemetry = json.loads(line)
        assert telemetry["command"] == "datagen"
        assert list(telemetry["stage_s"]) == ["generate", "write", "count"]
        assert all(v >= 0 for v in telemetry["stage_s"].values())
        assert telemetry["records"] == 16
        assert telemetry["records_per_s"] > 0
        assert list(telemetry) == ["command", "stage_s", "records", "records_per_s", "minor_faults"]
        assert telemetry["minor_faults"] >= 0

    def test_checkpoint_loadable_and_metrics_written(self, workdir):
        params = seq2seq.load_checkpoint(workdir["ckpt"])
        assert params.config.cell_dim == 8
        metrics_csv = workdir["ckpt"] + ".metrics.csv"
        lines = open(metrics_csv).read().strip().split("\n")
        assert lines[0] == "epoch,train_nll,val_nll,lr"
        assert len(lines) >= 3

    @pytest.mark.parametrize(
        "shards, layout",
        [
            (2, "2 row shards, the second on a worker thread"),
            (1, "whole batches on the calling thread"),
        ],
    )
    def test_train_names_its_layout(self, workdir, tmp_path, capsys, monkeypatch, shards, layout):
        monkeypatch.setattr(nn, "row_shards", lambda: shards)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--data", workdir["data"], "--out", ckpt, "--seed", "3"] + toy_args("train.max_epochs=1")) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("training on"))
        assert re.match(r"^training on \d+ windows, validating on \d+ \((.*)\)$", line).group(1) == layout

    def test_train_telemetry_line(self, workdir, tmp_path, capsys, monkeypatch):
        norms, clip = [], training.clip_gradients
        monkeypatch.setattr(training, "clip_gradients", lambda grads, max_norm: norms.append(clip(grads, max_norm)) or norms[-1])
        ckpt = str(tmp_path / "model.ckpt")
        argv = ["train", "--data", workdir["data"], "--out", ckpt, "--seed", "3"]
        assert main(argv + toy_args("train.grad_clip_norm=0.9")) == 0
        captured = capsys.readouterr()
        windows = int(re.match(r"^training on (\d+) windows", captured.out).group(1))
        [line] = captured.err.splitlines()
        telemetry = json.loads(line)
        assert list(telemetry) == [
            "command", "stage_s", "windows", "windows_per_s", "shards",
            "grad_norm_mean", "grad_norm_max", "clip_frac", "minor_faults",
        ]
        assert telemetry["command"] == "train"
        assert list(telemetry["stage_s"]) == ["read", "crop", "train"]
        assert all(v >= 0 for v in telemetry["stage_s"].values())
        # two epochs of every training window, in batches of 16
        assert telemetry["windows"] == 2 * windows
        assert len(norms) == 2 * -(-windows // 16)
        assert telemetry["windows_per_s"] > 0
        assert telemetry["shards"] == nn.shard_count(min(16, windows))
        assert telemetry["grad_norm_mean"] == round(float(np.mean(norms)), 6)
        assert telemetry["grad_norm_max"] == round(max(norms), 6)
        assert telemetry["clip_frac"] == round(float(np.mean(np.array(norms) > 0.9)), 6)
        assert 0 < telemetry["clip_frac"] < 1
        assert telemetry["minor_faults"] >= 0
        # the norms stay out of the metrics CSV
        assert open(ckpt + ".metrics.csv").readline() == "epoch,train_nll,val_nll,lr\n"

    def test_train_telemetry_without_batches(self, workdir, tmp_path, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--data", workdir["data"], "--out", ckpt, "--seed", "3"] + toy_args("train.max_epochs=0")) == 0
        telemetry = json.loads(capsys.readouterr().err)
        assert telemetry["windows"] == 0
        assert telemetry["grad_norm_mean"] is telemetry["grad_norm_max"] is telemetry["clip_frac"] is None

    def test_predict_outputs_k_hypotheses(self, workdir, capsys):
        out = os.path.join(workdir["dir"], "hyp.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out", out])
        assert rc == 0
        rows = [json.loads(line) for line in open(out)]
        assert len(rows) == 16  # 8 scenarios x 2 vehicles
        for row in rows:
            assert len(row["hypotheses"]) == 4
            lps = [h["log_prob"] for h in row["hypotheses"]]
            assert lps == sorted(lps, reverse=True)
            for h in row["hypotheses"]:
                assert len(h["cells"]) == 3
                for cell in h["cells"]:
                    assert cell is None or (1 <= cell[0] <= 6 and 1 <= cell[1] <= 3)

    def test_predict_greedy_equals_beam_top1(self, workdir):
        beam_out = os.path.join(workdir["dir"], "hyp_beam.jsonl")
        greedy_out = os.path.join(workdir["dir"], "hyp_greedy.jsonl")
        assert main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"],
                     "--out", beam_out, "--beam-width", "1"]) == 0
        assert main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"],
                     "--out", greedy_out, "--greedy"]) == 0
        beam_rows = [json.loads(line) for line in open(beam_out)]
        greedy_rows = [json.loads(line) for line in open(greedy_out)]
        for b, g in zip(beam_rows, greedy_rows):
            assert b["hypotheses"][0]["cells"] == g["hypotheses"][0]["cells"]

    def test_predict_beam_matches_single_vehicle_decode(self, workdir):
        out = os.path.join(workdir["dir"], "hyp_batched.jsonl")
        assert main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out", out]) == 0
        params = seq2seq.load_checkpoint(workdir["ckpt"])
        rows = [json.loads(line) for line in open(out)]
        for rec, row in zip(datagen.read_dataset(workdir["data"]), rows):
            summary = seq2seq.encode(params, rec.frames[-params.config.obs_len:])
            single = seq2seq.beam_search_decode(params, summary).hypotheses
            assert [h["log_prob"] for h in row["hypotheses"]] == [h.log_prob for h in single]

    def test_predict_greedy_at_cell_128_equals_per_vehicle_decoding(self, tmp_path):
        # more vehicles than one DECODE_CHUNK, at the cell-128 layer shapes
        # where a multi-row gemm would round rows differently from one row
        data, ckpt, out = str(tmp_path / "data.jsonl"), str(tmp_path / "model.ckpt"), str(tmp_path / "pred.jsonl")
        assert main(["datagen", "--out", data, "--seed", "21", "--set", "data.n_scenarios=14",
                     "--set", "data.frames_per_record=51"]) == 0
        records = datagen.read_dataset(data)
        assert len(records) > seq2seq.DECODE_CHUNK
        params = seq2seq.init_model_params(seq2seq.ModelConfig(cell_dim=128, obs_len=30, horizon=10), seed=21)
        windows, _ = training.crop_windows(records, 30, 10, params.config.grid)
        training.fit_normalizer(params, windows)
        seq2seq.save_checkpoint(params, ckpt)
        assert main(["predict", "--checkpoint", ckpt, "--data", data, "--out", out, "--greedy"]) == 0
        expected = []
        for rec in records:
            hyp = seq2seq.greedy_decode(params, seq2seq.encode(params, rec.frames[-30:]))
            cells = [ogm.unflatten(q, params.config.grid) for q in hyp.sequence]
            obj = {
                "scenario_id": rec.scenario_id,
                "vehicle_id": rec.vehicle_id,
                "hypotheses": [{"log_prob": hyp.log_prob, "cells": [[c.w, c.l] if c.in_map else None for c in cells]}],
            }
            expected.append(json.dumps(obj) + "\n")
        assert open(out, "rb").read() == "".join(expected).encode("utf-8")

    def test_predict_bytes_do_not_depend_on_the_blas_pin(self, tmp_path):
        # real processes, so that the pin is read as gridcast imports: with
        # OPENBLAS_NUM_THREADS=1 on a host of 2 or more CPUs each command
        # decodes two row shards on two threads, unset one shard on a
        # threaded BLAS, at cell 128 over more vehicles than one DECODE_CHUNK
        data, ckpt = str(tmp_path / "data.jsonl"), str(tmp_path / "model.ckpt")
        assert main(["datagen", "--out", data, "--seed", "21", "--set", "data.n_scenarios=14",
                     "--set", "data.frames_per_record=51"]) == 0
        records = datagen.read_dataset(data)
        assert len(records) > seq2seq.DECODE_CHUNK
        params = seq2seq.init_model_params(seq2seq.ModelConfig(cell_dim=128, obs_len=30, horizon=10), seed=21)
        windows, _ = training.crop_windows(records, 30, 10, params.config.grid)
        training.fit_normalizer(params, windows)
        seq2seq.save_checkpoint(params, ckpt)
        src = os.path.dirname(os.path.dirname(os.path.abspath(seq2seq.__file__)))
        blas_variables = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in blas_variables}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        pinned = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        for mode in ([], ["--greedy"]):
            runs = []
            for pin, shards in ((pinned, 2 if len(nn._cpu_set()) >= 2 else 1), ({}, 1)):
                out = tmp_path / f"pred-{len(runs)}.jsonl"
                res = subprocess.run(
                    [sys.executable, "-c", "import sys; from gridcast.cli import main; sys.exit(main(sys.argv[1:]))",
                     "predict", "--checkpoint", ckpt, "--data", data, "--out", str(out), *mode],
                    env={**base, **pin}, capture_output=True, text=True, timeout=300,
                )
                assert res.returncode == 0, res.stderr
                assert json.loads(res.stderr.splitlines()[-1])["shards"] == shards, (pin, mode)
                runs.append(out.read_bytes())
            assert runs[0] == runs[1], mode

    def test_predict_too_few_frames_errors(self, workdir, tmp_path, capsys):
        short = os.path.join(tmp_path, "short.jsonl")
        with open(short, "w") as f:
            f.write(json.dumps({"scenario_id": 0, "vehicle_id": 9, "frames": [[0.0] * 6] * 3}) + "\n")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", short, "--out",
                   os.path.join(tmp_path, "o.jsonl")])
        assert rc == 2
        assert "vehicle 9" in capsys.readouterr().err

    def test_eval_model_report(self, workdir, capsys):
        rc = main(["eval", "--checkpoint", workdir["ckpt"], "--data", workdir["data"]] + toy_args())
        assert rc == 0
        out = capsys.readouterr().out
        assert "MAE (grids)" in out
        assert "Omega=1" in out and "Omega=3" in out
        series = workdir["data"] + ".series.csv"
        assert os.path.exists(series)

    def test_eval_kalman_only_omega_1(self, workdir, capsys):
        rc = main(["eval", "--kalman", "--data", workdir["data"]] + toy_args())
        assert rc == 0
        out = capsys.readouterr().out
        assert "Omega=1" in out
        assert "Omega=3" not in out

    def test_eval_kalman_output_bytes_pinned(self, tmp_path, capsys):
        # default grid and model on 10 scenarios (130 test windows): the
        # table and the series, to the byte, as the filter with the dense 4x4
        # transition product wrote them
        data, series = str(tmp_path / "data.jsonl"), str(tmp_path / "series.csv")
        assert main(["datagen", "--out", data, "--seed", "20", "--set", "data.n_scenarios=10"]) == 0
        capsys.readouterr()
        assert main(["eval", "--kalman", "--data", data, "--out-series", series]) == 0
        out, series_line = capsys.readouterr().out, f"series written to {series}\n"
        assert out.endswith(series_line)
        table = out.removesuffix(series_line)
        assert hashlib.sha256(table.encode()).hexdigest() == "cd0818471e8e58926b054a786755d40c81e0fa06b7e22ccd32515db917367180"
        assert hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest() == (
            "eaf32a0bf8d7657c98f078a4ea03d434cd8ef1042b3f2818dd2924573048eb7c"
        )

    def test_eval_kalman_forecasts_all_windows_in_one_call(self, workdir, tmp_path, capsys):
        series = str(tmp_path / "series.csv")
        argv = ["eval", "--kalman", "--data", workdir["data"], "--out-series", series] + toy_args()
        assert main(argv) == 0
        expected = capsys.readouterr().out, (tmp_path / "series.csv").read_bytes()
        # a decode chunk smaller than the test split does not split the forecast
        with mock.patch.object(seq2seq, "DECODE_CHUNK", 3), \
                mock.patch.object(kalman, "kf_forecast_rows", wraps=kalman.kf_forecast_rows) as forecast:
            assert main(argv) == 0
        [call] = forecast.call_args_list
        assert call.args[0].shape == (10, 10, 6)  # one test scenario: 2 vehicles x 5 windows
        assert (capsys.readouterr().out, (tmp_path / "series.csv").read_bytes()) == expected

    @pytest.mark.parametrize("source", ["kalman", "checkpoint"])
    def test_eval_parses_only_the_test_records_of_a_bound_dataset(self, workdir, tmp_path, capsys, source):
        args = ["--kalman"] if source == "kalman" else ["--checkpoint", workdir["ckpt"]]
        # the same dataset beside an unbound manifest: every record is parsed
        unbound = str(tmp_path / "unbound.jsonl")
        shutil.copyfile(workdir["data"], unbound)
        datagen.write_manifest(datagen.read_manifest(workdir["data"]), unbound)
        runs = []
        for data in (workdir["data"], unbound):
            series = str(tmp_path / "series.csv")
            assert main(["eval", *args, "--data", data, "--out-series", series] + toy_args()) == 0
            captured = capsys.readouterr()
            runs.append((captured.out, (tmp_path / "series.csv").read_bytes(), json.loads(captured.err.splitlines()[-1])))
        (bound_out, bound_series, bound_line), (out, series_bytes, line) = runs
        test_ids = datagen.read_manifest(workdir["data"])["splits"]["test"]
        records = datagen.read_dataset(workdir["data"])
        assert bound_line["records_read"] == sum(rec.scenario_id in test_ids for rec in records) < len(records)
        assert line["records_read"] == len(records)
        assert (bound_out, bound_series, bound_line["windows"]) == (out, series_bytes, line["windows"])

    def test_eval_requires_exactly_one_source(self, workdir, capsys):
        rc = main(["eval", "--data", workdir["data"]] + toy_args())
        assert rc == 2
        rc = main(["eval", "--kalman", "--checkpoint", workdir["ckpt"], "--data", workdir["data"]] + toy_args())
        assert rc == 2

    def test_eval_omega_above_beam_width_rejected(self, workdir, capsys):
        rc = main(["eval", "--checkpoint", workdir["ckpt"], "--data", workdir["data"],
                   "--omega", "9"] + toy_args())
        assert rc == 2
        assert "beam width" in capsys.readouterr().err

    def test_eval_checkpoint_ignores_the_calls_model_config(self, workdir, tmp_path, capsys):
        # the call's default model (30+2*10 frames) does not fit 20-frame
        # records; the checkpoint's 10+2*3 window does, and decides
        series = str(tmp_path / "series.csv")
        argv = ["eval", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out-series", series]
        assert main(argv + toy_args()) == 0
        expected = capsys.readouterr().out, (tmp_path / "series.csv").read_bytes()
        own = ["eval.omegas=1,3", "eval.horizons_s=0.2,0.6", "data.frames_per_record=20"]
        assert main(argv + [a for item in own for a in ("--set", item)]) == 0
        assert (capsys.readouterr().out, (tmp_path / "series.csv").read_bytes()) == expected

    def test_eval_checkpoint_horizons_checked_before_decoding(self, workdir, tmp_path, capsys):
        # the call's model fits the default 2.0 s horizon; the 3-step checkpoint does not
        series = str(tmp_path / "series.csv")
        own = ["eval.omegas=1,3", "model.obs_len=1", "model.horizon=10", "data.frames_per_record=21"]
        argv = ["eval", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out-series", series]
        with mock.patch.object(seq2seq, "predict_scene") as decode:
            assert main(argv + [a for item in own for a in ("--set", item)]) == 2
        decode.assert_not_called()
        err = capsys.readouterr().err
        assert err == f"error: eval.horizons_s needs 10 decode steps, checkpoint {workdir['ckpt']} decodes 3\n"
        assert os.listdir(tmp_path) == []

    def test_eval_checkpoint_window_checked_against_the_test_records(self, workdir, tmp_path, capsys):
        records = datagen.read_dataset(workdir["data"])
        for rec in records:
            rec.frames = rec.frames[:15]  # one frame short of the checkpoint's 10+2*3 window
        data, series = str(tmp_path / "short.jsonl"), str(tmp_path / "series.csv")
        datagen.write_manifest(datagen.read_manifest(workdir["data"]), data, dataset=datagen.write_dataset(records, data))
        assert main(["eval", "--checkpoint", workdir["ckpt"], "--data", data, "--out-series", series] + toy_args()) == 2
        err = capsys.readouterr().err
        assert err == f"error: test records of at most 15 frames cannot hold checkpoint {workdir['ckpt']}'s 10+2*3 window (16 frames)\n"
        assert not os.path.exists(series)

    def test_eval_crops_on_the_checkpoint_grid(self, tmp_path):
        # trained on 4 m cells (x in [0, 24) m); eval with no grid flags must
        # quantize the labels on that grid, not on a grid rebuilt from 6 x 3
        data, ckpt = str(tmp_path / "data.jsonl"), str(tmp_path / "model.ckpt")
        assert main(["datagen", "--out", data, "--seed", "3"] + toy_args("grid.cell_len=4.0")) == 0
        assert main(["train", "--data", data, "--out", ckpt, "--seed", "3"] + toy_args("grid.cell_len=4.0")) == 0
        assert seq2seq.load_checkpoint(ckpt).config.grid == ogm.GridSpec.custom(6, 3, cell_len=4.0)
        no_grid_flags = [a for item in TOY if not item.startswith("grid.") for a in ("--set", item)]
        with mock.patch.object(training, "crop_window_arrays", wraps=training.crop_window_arrays) as crop:
            rc = main(["eval", "--checkpoint", ckpt, "--data", data,
                       "--out-series", str(tmp_path / "s.csv")] + no_grid_flags)
        assert rc == 0
        assert [c.args[3].x_max for c in crop.call_args_list] == [24.0]

    @pytest.mark.parametrize("source", ["kalman", "checkpoint"])
    def test_eval_telemetry_line(self, workdir, tmp_path, capsys, source):
        # a test record cut too short for a window: counted, not scored
        records = datagen.read_dataset(workdir["data"])
        manifest = datagen.read_manifest(workdir["data"])
        test_ids = set(manifest["splits"]["test"])
        test_records = [r for r in records if r.scenario_id in test_ids]
        test_records[0].frames = test_records[0].frames[:12]
        data, series = str(tmp_path / "cut.jsonl"), str(tmp_path / "series.csv")
        datagen.write_dataset(records, data)
        datagen.write_manifest(manifest, data)
        args = ["--kalman"] if source == "kalman" else ["--checkpoint", workdir["ckpt"]]
        rc = main(["eval", *args, "--data", data, "--out-series", series] + toy_args())
        assert rc == 0
        captured = capsys.readouterr()
        telemetry = json.loads(captured.err.splitlines()[-1])
        windows = sum(r.frames.shape[0] - 15 for r in test_records[1:])
        stage = "forecast" if source == "kalman" else "decode"
        assert list(telemetry["stage_s"]) == ["read", "crop", stage, "score", "write"]
        assert all(v >= 0 for v in telemetry["stage_s"].values())
        assert telemetry["command"] == "eval"
        assert telemetry["windows"] == windows
        assert telemetry["windows_per_s"] > 0
        assert telemetry["records_too_short"] == 1
        assert telemetry["records_read"] == len(records)  # an unbound manifest: every record is parsed
        assert list(telemetry) == [
            "command", "stage_s", "windows", "windows_per_s", "records_too_short", "shards", "records_read", "minor_faults"
        ]
        assert telemetry["minor_faults"] >= 0
        if source == "kalman":
            # stdout and series are those of one kf_forecast call per window
            cfg = load_run_config(None, TOY)
            grid = cfg.model.grid
            examples, _ = training.crop_windows(test_records, 10, 3, grid)
            predictions = [
                seq2seq.TrajectoryPrediction([seq2seq.BeamHypothesis(kalman.kf_forecast(ex.inputs, cfg.kalman, 3, grid), 0.0)])
                for ex in examples
            ]
            eval_cfg = dataclasses.replace(cfg.eval, omegas=(1,))
            report = metrics.score_predictions(
                predictions, [ex.labels for ex in examples], eval_cfg, grid, label="Kalman constant-velocity baseline"
            )
            text, expected_series = metrics.render_report(report)
            assert captured.out == text + f"series written to {series}\n"
            assert (tmp_path / "series.csv").read_text(encoding="utf-8") == expected_series

    @pytest.mark.parametrize("mode", [["--greedy"], []], ids=["greedy", "beam"])
    def test_predict_telemetry_line(self, workdir, tmp_path, capsys, mode):
        out = str(tmp_path / "pred.jsonl")
        assert main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out", out, *mode]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote predictions for 16 vehicles to {out}\n"
        [line] = captured.err.splitlines()
        telemetry = json.loads(line)
        assert telemetry["command"] == "predict"
        assert list(telemetry["stage_s"]) == ["read", "decode", "write"]
        assert all(v >= 0 for v in telemetry["stage_s"].values())
        assert telemetry["vehicles"] == 16
        assert telemetry["vehicles_per_s"] > 0
        assert list(telemetry) == ["command", "stage_s", "vehicles", "vehicles_per_s", "shards", "minor_faults"]
        assert telemetry["minor_faults"] >= 0

    def test_telemetry_leaves_out_minor_faults_without_resource(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        out = str(tmp_path / "pred.jsonl")
        assert main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out", out, "--greedy"]) == 0
        telemetry = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert list(telemetry) == ["command", "stage_s", "vehicles", "vehicles_per_s", "shards"]

    @pytest.mark.parametrize("rule", [1, 2])
    def test_telemetry_names_the_shards(self, workdir, tmp_path, capsys, monkeypatch, rule):
        monkeypatch.setattr(nn, "row_shards", lambda: rule)
        one = str(tmp_path / "one.jsonl")
        datagen.write_dataset(datagen.read_dataset(workdir["data"])[:1], one)
        runs = [
            (["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"]], rule),
            (["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--greedy"], rule),
            (["predict", "--checkpoint", workdir["ckpt"], "--data", one], 1),
            (["eval", "--checkpoint", workdir["ckpt"], "--data", workdir["data"]] + toy_args(), rule),
            (["eval", "--kalman", "--data", workdir["data"]] + toy_args(), 1),
        ]
        for args, shards in runs:
            out = ["--out", str(tmp_path / "pred.jsonl")] if args[0] == "predict" else ["--out-series", str(tmp_path / "s.csv")]
            assert main(args + out) == 0
            assert json.loads(capsys.readouterr().err.splitlines()[-1])["shards"] == shards, args

    def test_outputs_take_the_umask_mode(self, tmp_path):
        data, ckpt = str(tmp_path / "data.jsonl"), str(tmp_path / "model.ckpt")
        outputs = [data, data + ".manifest.json", ckpt, ckpt + ".metrics.csv", str(tmp_path / "pred.jsonl"), str(tmp_path / "series.csv")]
        old = os.umask(0o022)
        try:
            assert main(["datagen", "--out", data, "--seed", "3"] + toy_args()) == 0
            assert main(["train", "--data", data, "--out", ckpt, "--seed", "3"] + toy_args("train.max_epochs=1")) == 0
            assert main(["predict", "--checkpoint", ckpt, "--data", data, "--out", outputs[4], "--greedy"]) == 0
            assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out-series", outputs[5]] + toy_args()) == 0
        finally:
            os.umask(old)
        assert {path: oct(os.stat(path).st_mode & 0o777) for path in outputs} == {path: "0o644" for path in outputs}

    @pytest.mark.parametrize(
        "override,field",
        [
            ("kalman.sigma_a=1e200", "sigma_a"),
            ("kalman.sigma_a=nan", "sigma_a"),
            ("kalman.dt=-1", "dt"),
            ("kalman.init_pos_var=-5", "init_pos_var"),
        ],
    )
    def test_eval_kalman_bad_model_exits_2(self, workdir, tmp_path, capsys, override, field):
        series = str(tmp_path / "series.csv")
        rc = main(["eval", "--kalman", "--data", workdir["data"], "--out-series", series] + toy_args(override))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: section 'kalman': {field} " in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_eval_kalman_singular_covariance_exits_2(self, workdir, tmp_path, capsys):
        series = str(tmp_path / "series.csv")
        rc = main(["eval", "--kalman", "--data", workdir["data"], "--out-series", series] + toy_args("kalman.init_vel_var=1e308"))
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(r"error: Kalman innovation covariance is singular at frame 1 for CvModel\(.*init_vel_var=1e\+308\)", err)
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_overfit_mode(self, workdir, tmp_path, capsys):
        ckpt = os.path.join(workdir["dir"], "overfit.ckpt")
        rc = main(["train", "--data", workdir["data"], "--out", ckpt, "--seed", "3",
                   "--overfit", "4"] + toy_args("train.max_epochs=400", "train.lr0=0.01"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "overfit mode" in out
        # N below 1 is rejected before the data is read
        for n in ("0", "-3"):
            rc = main(["train", "--data", workdir["data"], "--out", str(tmp_path / "bad.ckpt"), "--overfit", n] + toy_args())
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: --overfit needs N >= 1, got {n}\n"
            assert captured.out == ""
        assert os.listdir(tmp_path) == []


class TestFixedSettings:
    """The frame period, the decode period and the input width have one
    working value each. Config files written while they were settings still
    load at that value; any other value exits 2 before any work."""

    OLD_KEYS = "model.input_dim = 6       # observation features per frame\neval.decode_period_s = 0.2\nkalman.dt = 0.1\n"

    def test_older_example_config_loads_to_the_defaults(self, tmp_path):
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", "example.cfg"), encoding="utf-8") as f:
            text = f.read()
        path = str(tmp_path / "old.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + self.OLD_KEYS)
        assert load_run_config(path) == RunConfig()
        assert load_run_config(None, ["model.input_dim=6", "eval.decode_period_s=0.20", "kalman.dt=1e-1"]) == RunConfig()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("kalman.dt=0.05", "section 'kalman': dt is fixed at 0.1, got 0.05"),
            ("eval.decode_period_s=0.4", "section 'eval': decode_period_s is fixed at 0.2, got 0.4"),
            ("model.input_dim=7", "section 'model': input_dim is fixed at 6, got 7"),
        ],
    )
    @pytest.mark.parametrize("command", ["eval-kalman", "train", "datagen"])
    def test_other_value_exits_2_naming_the_key(self, workdir, tmp_path, capsys, override, message, command):
        out = str(tmp_path / "out")
        argv = {
            "eval-kalman": ["eval", "--kalman", "--data", workdir["data"], "--out-series", out],
            "train": ["train", "--data", workdir["data"], "--out", out],
            "datagen": ["datagen", "--out", out],
        }[command]
        assert main(argv + toy_args(override)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message} (command line)\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_other_value_in_a_file_names_its_line(self, tmp_path, capsys):
        path = str(tmp_path / "old.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.OLD_KEYS.replace("kalman.dt = 0.1", "kalman.dt = 0.2"))
        assert main(["datagen", "--config", path, "--out", str(tmp_path / "x.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: section 'kalman': dt is fixed at 0.1, got 0.2 ({path}:3)\n"
        assert os.listdir(tmp_path) == ["old.cfg"]


class TestBadInput:
    """Bad input fails at the boundary: exit code 2, a message naming the
    scenario, vehicle and frame, and no output file left behind."""

    @pytest.fixture
    def nan_data(self, workdir, tmp_path):
        records = datagen.read_dataset(workdir["data"])
        records[5].frames[12, 3] = np.nan
        path = str(tmp_path / "nan.jsonl")
        datagen.write_dataset(records, path)
        datagen.write_manifest(datagen.read_manifest(workdir["data"]), path)
        return path, f"scenario {records[5].scenario_id} vehicle {records[5].vehicle_id}: non-finite value in frame 12"

    @pytest.mark.parametrize("mode", [[], ["--greedy"]])
    def test_predict_nan_frame(self, workdir, nan_data, tmp_path, capsys, mode):
        data, where = nan_data
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", data, "--out", out] + mode)
        assert rc == 2
        assert where in capsys.readouterr().err
        assert not any(name.startswith(("pred", ".predict-")) for name in os.listdir(tmp_path))

    def test_eval_nan_frame(self, workdir, nan_data, tmp_path, capsys):
        data, where = nan_data
        series = str(tmp_path / "series.csv")
        rc = main(["eval", "--checkpoint", workdir["ckpt"], "--data", data, "--out-series", series] + toy_args())
        assert rc == 2
        assert where in capsys.readouterr().err
        assert not os.path.exists(series)

    def test_predict_ragged_frames(self, workdir, tmp_path, capsys):
        data = str(tmp_path / "ragged.jsonl")
        with open(data, "w") as f:
            f.write(json.dumps({"scenario_id": 4, "vehicle_id": 9, "frames": [[0.0] * 6, [0.0] * 5]}) + "\n")
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", data, "--out", out])
        assert rc == 2
        assert f"{data}:1: scenario 4 vehicle 9: frames must be rows of 6 features" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_predict_non_integer_id(self, workdir, tmp_path, capsys):
        data = str(tmp_path / "ids.jsonl")
        with open(data, "w") as f:
            f.write(json.dumps({"scenario_id": 1, "vehicle_id": 0, "frames": [[0.0] * 6] * 10}) + "\n")
            f.write(json.dumps({"scenario_id": "s1", "vehicle_id": 0, "frames": [[0.0] * 6] * 10}) + "\n")
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", data, "--out", out])
        assert rc == 2
        assert f"{data}:2: field 'scenario_id' must be an integer, got 's1'" in capsys.readouterr().err
        assert not any(name.startswith(("pred", ".predict-")) for name in os.listdir(tmp_path))

    def test_predict_non_object_record(self, workdir, tmp_path, capsys):
        data = str(tmp_path / "five.jsonl")
        with open(data, "w") as f:
            f.write("5\n")
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", data, "--out", out])
        assert rc == 2
        assert f"{data}:1: record must be a JSON object" in capsys.readouterr().err
        assert not any(name.startswith(("pred", ".predict-")) for name in os.listdir(tmp_path))

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_predict_greedy_non_positive_horizon(self, workdir, tmp_path, capsys, horizon):
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out", out,
                   "--greedy", "--horizon", horizon])
        assert rc == 2
        assert "beam width and horizon must be >= 1" in capsys.readouterr().err
        assert not any(name.startswith(("pred", ".predict-")) for name in os.listdir(tmp_path))

    def test_predict_greedy_with_beam_width_rejected(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", workdir["data"], "--out", out,
                   "--greedy", "--beam-width", "5"])
        assert rc == 2
        assert "error: pass at most one of --greedy or --beam-width" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("mode", [[], ["--greedy"]])
    def test_predict_empty_dataset(self, workdir, tmp_path, capsys, mode):
        data = str(tmp_path / "empty.jsonl")
        open(data, "w").close()
        rc = main(["predict", "--checkpoint", workdir["ckpt"], "--data", data, "--out", str(tmp_path / "pred.jsonl")] + mode)
        assert rc == 2
        assert f"error: {data}: no records to predict" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["empty.jsonl"]

    def test_train_leaves_no_metrics_file_when_the_write_fails(self, workdir, tmp_path, capsys):
        real_replace = os.replace

        def failing_replace(src, dst):
            if str(dst).endswith(".metrics.csv"):
                raise OSError("disk full")
            real_replace(src, dst)

        ckpt = str(tmp_path / "model.ckpt")
        with mock.patch("os.replace", failing_replace):
            rc = main(["train", "--data", workdir["data"], "--out", ckpt, "--seed", "3"] + toy_args())
        assert rc == 2
        assert "disk full" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize(
        "text, field",
        [
            ("{}", "missing field 'splits'"),
            ('{"splits": {"train": [0], "val": [1]}}', "missing field 'splits.test'"),
            ("[]", "manifest must be a JSON object"),
            ('{"splits": {"train": "abc", "val": [1], "test": [2]}}', "field 'splits.train' must be a list of integer"),
            ("not json", "invalid JSON"),
        ],
        ids=["empty", "no-test", "list", "string-ids", "invalid-json"],
    )
    def test_malformed_manifest_exits_2(self, workdir, tmp_path, capsys, command, text, field):
        data = str(tmp_path / "data.jsonl")
        shutil.copyfile(workdir["data"], data)
        (tmp_path / "data.jsonl.manifest.json").write_text(text, encoding="utf-8")
        if command == "eval":
            argv = ["eval", "--kalman", "--data", data, "--out-series", str(tmp_path / "series.csv")]
        else:
            argv = ["train", "--data", data, "--out", str(tmp_path / "model.ckpt")]
        assert main(argv + toy_args()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}.manifest.json: {field}")
        assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "data.jsonl.manifest.json"]

    def test_datagen_keeps_the_old_dataset_when_the_rename_fails(self, tmp_path, capsys):
        data = str(tmp_path / "data.jsonl")
        assert main(["datagen", "--out", data, "--seed", "3"] + toy_args()) == 0
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        capsys.readouterr()
        with mock.patch("os.replace", side_effect=OSError("disk full")):
            rc = main(["datagen", "--out", data, "--seed", "4"] + toy_args())
        assert rc == 2
        assert "disk full" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before

    def test_torn_dataset_and_manifest_pair_exits_2(self, workdir, tmp_path, capsys):
        # the manifest's rename fails after the dataset's: a new dataset
        # beside the old manifest, which no reader may use
        data = str(tmp_path / "data.jsonl")
        assert main(["datagen", "--out", data, "--seed", "3"] + toy_args()) == 0
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        real_replace = os.replace

        def failing_replace(src, dst):
            if str(dst).endswith(".manifest.json"):
                raise OSError("disk full")
            real_replace(src, dst)

        with mock.patch("os.replace", failing_replace):
            assert main(["datagen", "--out", data, "--seed", "4"] + toy_args()) == 2
        assert (tmp_path / "data.jsonl").read_bytes() != before["data.jsonl"]
        assert (tmp_path / "data.jsonl.manifest.json").read_bytes() == before["data.jsonl.manifest.json"]
        capsys.readouterr()
        out = str(tmp_path / "out")
        for argv in (
            ["eval", "--kalman", "--data", data, "--out-series", out],
            ["eval", "--checkpoint", workdir["ckpt"], "--data", data, "--out-series", out],
            ["train", "--data", data, "--out", out],
        ):
            assert main(argv + toy_args()) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {data} does not match its manifest {data}.manifest.json: "), argv
            assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "data.jsonl.manifest.json"]

    @pytest.mark.parametrize("mode", [[], ["--greedy"]])
    def test_non_finite_logits_exit_2_without_output(self, workdir, tmp_path, capsys, mode):
        params = seq2seq.load_checkpoint(workdir["ckpt"])
        params.dec_fc[-1].bias[0] = np.nan
        ckpt = str(tmp_path / "nan.ckpt")
        seq2seq.save_checkpoint(params, ckpt)
        out = str(tmp_path / "pred.jsonl")
        rc = main(["predict", "--checkpoint", ckpt, "--data", workdir["data"], "--out", out] + mode)
        assert rc == 2
        assert "non-finite decoder logits" in capsys.readouterr().err
        assert not any(name.startswith(("pred", ".predict-")) for name in os.listdir(tmp_path))


@pytest.fixture(scope="module")
def bound_bytes(tmp_path_factory):
    """The bytes of a toy dataset and of its bound manifest."""
    data = str(tmp_path_factory.mktemp("bound") / "data.jsonl")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["datagen", "--out", data, "--seed", "5"] + toy_args()) == 0
    return open(data, "rb").read(), open(data + ".manifest.json", "rb").read()


class TestCorruptDataset:
    """Any flipped byte or truncation of a bound dataset is caught before a
    record is used: eval and train exit 2 naming the dataset, with no
    traceback and no output file."""

    @settings(deadline=None, max_examples=40)
    @given(cut=st.data())
    def test_flipped_byte_or_truncation_exits_2(self, bound_bytes, cut):
        data, manifest = bound_bytes
        offset = cut.draw(st.integers(0, len(data) - 1), label="offset")
        if cut.draw(st.booleans(), label="truncate"):
            damaged = data[:offset]
        else:
            damaged = data[:offset] + bytes([data[offset] ^ cut.draw(st.integers(1, 255), label="xor")]) + data[offset + 1 :]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            with open(path, "wb") as f:
                f.write(damaged)
            with open(path + ".manifest.json", "wb") as f:
                f.write(manifest)
            out = os.path.join(tmp, "out")
            for argv in (["eval", "--kalman", "--data", path, "--out-series", out], ["train", "--data", path, "--out", out]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert main(argv + toy_args()) == 2
                assert err.getvalue().startswith(f"error: {path} does not match its manifest "), err.getvalue()
                assert "Traceback" not in err.getvalue()
                assert sorted(os.listdir(tmp)) == ["data.jsonl", "data.jsonl.manifest.json"]

    def test_test_run_relabelled_as_train_exits_2(self, bound_bytes, tmp_path, capsys):
        # the dataset's bytes still match: only the index says a test
        # scenario's lines belong to a train scenario, so eval would skip them
        data, manifest_bytes = bound_bytes
        manifest = json.loads(manifest_bytes)
        splits, index = manifest["splits"], manifest["dataset"]["index"]
        k = next(k for k, (sid, _) in enumerate(index) if sid in splits["test"])
        index[k][0] = splits["train"][0]
        path = str(tmp_path / "data.jsonl")
        (tmp_path / "data.jsonl").write_bytes(data)
        (tmp_path / "data.jsonl.manifest.json").write_text(json.dumps(manifest))
        out = str(tmp_path / "series.csv")
        for argv in (["eval", "--kalman", "--data", path, "--out-series", out], ["train", "--data", path, "--out", out]):
            assert main(argv + toy_args()) == 2, argv
            err = capsys.readouterr().err
            assert f"field 'dataset.index' run {k} does not match {path}" in err, err
            assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "data.jsonl.manifest.json"]


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert [line.split(":", 1)[0] for line in lines[:-1]] == [
            "PASS lstm-bptt-gradient-vs-finite-difference",
            "PASS full-model-gradient-vs-finite-difference",
            "PASS beam-search-vs-exhaustive-enumeration",
            "PASS beam-width-1-equals-greedy",
            "PASS grid-quantization-roundtrip",
            "PASS softmax-probability-contract",
            "PASS kalman-constant-velocity-exactness",
        ]
        assert lines[-1] == "7/7 checks passed"

    def test_perturbed_gradient_fails(self, capsys):
        rc = main(["verify", "--perturb-gradient", "1e-3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL lstm-bptt-gradient-vs-finite-difference" in out
