"""Command-line surface: config parsing and validation, the full
datagen -> train -> predict -> eval pipeline at toy scale, verify battery."""

import json
import os
from unittest import mock

import numpy as np
import pytest

from gridcast import datagen, ogm, seq2seq, training
from gridcast.cli import ConfigError, load_run_config, main, validate_run_config

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

    def test_checkpoint_loadable_and_metrics_written(self, workdir):
        params = seq2seq.load_checkpoint(workdir["ckpt"])
        assert params.config.cell_dim == 8
        metrics_csv = workdir["ckpt"] + ".metrics.csv"
        lines = open(metrics_csv).read().strip().split("\n")
        assert lines[0] == "epoch,train_nll,val_nll,lr"
        assert len(lines) >= 3

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
            assert [h["log_prob"] for h in row["hypotheses"]] == pytest.approx(
                [h.log_prob for h in single], abs=1e-12
            )

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

    def test_eval_crops_on_the_checkpoint_grid(self, tmp_path):
        # trained on 4 m cells (x in [0, 24) m); eval with no grid flags must
        # quantize the labels on that grid, not on a grid rebuilt from 6 x 3
        data, ckpt = str(tmp_path / "data.jsonl"), str(tmp_path / "model.ckpt")
        assert main(["datagen", "--out", data, "--seed", "3"] + toy_args("grid.cell_len=4.0")) == 0
        assert main(["train", "--data", data, "--out", ckpt, "--seed", "3"] + toy_args("grid.cell_len=4.0")) == 0
        assert seq2seq.load_checkpoint(ckpt).config.grid == ogm.GridSpec.custom(6, 3, cell_len=4.0)
        no_grid_flags = [a for item in TOY if not item.startswith("grid.") for a in ("--set", item)]
        with mock.patch.object(training, "crop_windows", wraps=training.crop_windows) as crop:
            rc = main(["eval", "--checkpoint", ckpt, "--data", data,
                       "--out-series", str(tmp_path / "s.csv")] + no_grid_flags)
        assert rc == 0
        assert [c.args[3].x_max for c in crop.call_args_list] == [24.0]

    def test_overfit_mode(self, workdir, capsys):
        ckpt = os.path.join(workdir["dir"], "overfit.ckpt")
        rc = main(["train", "--data", workdir["data"], "--out", ckpt, "--seed", "3",
                   "--overfit", "4"] + toy_args("train.max_epochs=400", "train.lr0=0.01"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "overfit mode" in out


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


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "7/7 checks passed" in out
        assert "FAIL" not in out

    def test_perturbed_gradient_fails(self, capsys):
        rc = main(["verify", "--perturb-gradient", "1e-3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL lstm-bptt-gradient-vs-finite-difference" in out
