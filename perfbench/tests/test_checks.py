"""Each output check passes on good output and fails on corrupted output."""

import copy
import math

import numpy as np
import pytest

import checks
from gridcast import cli, datagen, ogm, seq2seq

GRID = ogm.GridSpec()


def _hyps(log_probs, horizon=3):
    return [{"log_prob": lp, "cells": [[1, 1], None, [36, 21]][:horizon]} for lp in log_probs]


def test_hypotheses_pass_when_sorted_and_inside_grid():
    assert checks.check_hypotheses(_hyps([-1.0, -2.0, -2.0]), 3, 3, GRID) == []


@pytest.mark.parametrize(
    "hyps, k",
    [
        (_hyps([-2.0, -1.0, -3.0]), 3),  # unsorted
        (_hyps([-1.0, math.nan, -3.0]), 3),  # NaN log_prob
        (_hyps([-1.0, math.inf, -3.0]), 3),  # infinite log_prob
        (_hyps([0.5, -1.0, -3.0]), 3),  # probability above one
        (_hyps([-1.0, -2.0]), 3),  # too few hypotheses
        (_hyps([-1.0, -2.0, -3.0], horizon=2), 3),  # too few cells
    ],
)
def test_hypotheses_fail_on_corruption(hyps, k):
    assert checks.check_hypotheses(hyps, k, 3, GRID)


@pytest.mark.parametrize("cell", [[0, 1], [37, 1], [1, 22], [1.0, 2], [1], "x"])
def test_hypotheses_fail_on_cells_outside_grid(cell):
    hyps = _hyps([-1.0])
    hyps[0]["cells"][1] = cell
    assert checks.check_hypotheses(hyps, 1, 3, GRID)


def test_predictions_fail_on_wrong_vehicle_or_count():
    records = [datagen.TrajectoryRecord(0, v, np.zeros((1, 6))) for v in range(2)]
    lines = [{"scenario_id": 0, "vehicle_id": v, "hypotheses": _hyps([-1.0])} for v in range(2)]
    assert checks.check_predictions(lines, records, 1, 3, GRID) == []
    assert checks.check_predictions(lines[:1], records, 1, 3, GRID)
    swapped = [lines[1], lines[0]]
    assert checks.check_predictions(swapped, records, 1, 3, GRID)


def _series(values):
    """CSV with MAE/MAE_X/MAE_Y rows for omegas 1, 3, 5 at one horizon."""
    rows = ["omega,delta_s,metric,value"]
    for omega, v in zip((1, 3, 5), values):
        for metric in ("MAE", "MAE_X", "MAE_Y"):
            rows.append(f"{omega},2.0,{metric},{v!r}")
    return "\n".join(rows) + "\n"


def test_eval_series_passes_when_finite_and_monotone():
    assert checks.check_eval_series(_series([3.0, 2.0, 2.0]), (1, 3, 5)) == []


def test_eval_series_fails_on_nan_cell():
    assert checks.check_eval_series(_series([3.0, math.nan, 1.0]), (1, 3, 5))


def test_eval_series_fails_when_mae_grows_with_omega():
    assert checks.check_eval_series(_series([2.0, 2.5, 1.0]), (1, 3, 5))


def test_eval_series_fails_on_missing_omega_or_garbage():
    assert checks.check_eval_series(_series([3.0, 2.0, 1.0]), (1, 3, 5, 10))
    assert checks.check_eval_series("omega,delta_s\n1,x\n", (1,))
    assert checks.check_eval_series("", (1,))


def _metrics_csv(val_nlls):
    rows = ["epoch,train_nll,val_nll,lr"]
    rows += [f"{e},6.6,{v!r},0.0008" for e, v in enumerate(val_nlls)]
    return "\n".join(rows) + "\n"


def test_train_metrics_pass_below_uniform_nll():
    text = _metrics_csv([6.63, 6.5, 6.4])
    assert checks.check_train_metrics(text, 2, 757) == []
    assert checks.final_val_nll(text) == 6.4


@pytest.mark.parametrize("last", [math.log(757), 7.0, math.nan, math.inf])
def test_train_metrics_fail_at_or_above_uniform_nll(last):
    assert checks.check_train_metrics(_metrics_csv([6.6, 6.5, last]), 2, 757)


def test_train_metrics_fail_on_missing_epoch():
    assert checks.check_train_metrics(_metrics_csv([6.6, 6.5]), 2, 757)


@pytest.fixture(scope="module")
def tiny_model():
    config = seq2seq.ModelConfig(cell_dim=4, fc_depth=1, lstm_stack_depth=1, obs_len=3, horizon=3, beam_width=4)
    params = seq2seq.init_model_params(config, seed=3)
    window = np.random.default_rng(3).standard_normal((config.obs_len, 6))
    return params, window


def _greedy_line(params, window):
    hyp = seq2seq.greedy_decode(params, seq2seq.encode(params, window))
    cells = [ogm.unflatten(q, GRID) for q in hyp.sequence]
    return {"hypotheses": [{"log_prob": hyp.log_prob, "cells": [[c.w, c.l] if c.in_map else None for c in cells]}]}


def test_beam_oracles_pass_on_library_output(tiny_model):
    params, window = tiny_model
    assert checks.check_beam_oracles(params, window, _greedy_line(params, window)) == []


def test_beam_oracles_fail_when_greedy_output_differs(tiny_model):
    params, window = tiny_model
    line = _greedy_line(params, window)
    bad = copy.deepcopy(line)
    bad["hypotheses"][0]["log_prob"] -= 1e-12
    assert checks.check_beam_oracles(params, window, bad)
    bad = copy.deepcopy(line)
    w, l = bad["hypotheses"][0]["cells"][0] or [1, 1]
    bad["hypotheses"][0]["cells"][0] = [w % 36 + 1, l]
    assert checks.check_beam_oracles(params, window, bad)


def test_replay_fails_on_wrong_log_prob(tiny_model):
    params, window = tiny_model
    summary = seq2seq.encode(params, window)
    beam = seq2seq.beam_search_decode(params, summary).hypotheses
    hyps = [(h.sequence, h.log_prob) for h in beam]
    assert checks.check_replay(params, summary, hyps) == []
    hyps[1] = (hyps[1][0], hyps[1][1] + 1e-6)
    assert len(checks.check_replay(params, summary, hyps)) == 1


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    config = datagen.ScenarioConfig(n_scenarios=4, vehicles_per_scenario=2, seed=5)
    records, manifest = datagen.generate_dataset(config)
    path = str(tmp_path_factory.mktemp("data") / "d.jsonl")
    datagen.write_dataset(records, path)
    datagen.write_manifest(manifest, path)
    return records, manifest, path


def test_dataset_check_passes_on_written_dataset(small_dataset):
    records, manifest, path = small_dataset
    assert checks.check_dataset(path, records, manifest) == []


def test_dataset_check_fails_on_changed_frame_or_manifest(small_dataset):
    records, manifest, path = small_dataset
    changed = [datagen.TrajectoryRecord(r.scenario_id, r.vehicle_id, r.frames.copy()) for r in records]
    changed[-1].frames[5, 2] = np.nextafter(changed[-1].frames[5, 2], np.inf)
    assert checks.check_dataset(path, changed, manifest)
    assert checks.check_dataset(path, records[:-1], manifest)
    other = copy.deepcopy(manifest)
    other["splits"]["test"] = other["splits"]["train"]
    assert checks.check_dataset(path, records, other)
    assert checks.check_dataset(path + ".missing", records, manifest)


def test_kalman_reference_matches_cli_and_catches_a_changed_cell(small_dataset, tmp_path, capsys):
    records, manifest, path = small_dataset
    series_path = tmp_path / "series.csv"
    assert cli.main(["eval", "--kalman", "--data", path, "--out-series", str(series_path)]) == 0
    capsys.readouterr()
    windows = checks.held_out_windows(records, manifest, 30, 10)
    reference = checks.kalman_reference(windows, (0.4, 0.8, 1.2, 1.6, 2.0))
    text = series_path.read_text()
    assert checks.check_series_matches(text, reference) == []
    key = (1, "2.0", "MAE")
    reference[key] += 1e-9
    assert checks.check_series_matches(text, reference)
