"""Synthetic generator: quintic profile math, frame consistency, determinism,
persistence round trips, split discipline."""

import json
import os

import numpy as np
import pytest

from gridcast import ogm
from gridcast.datagen import (
    DatasetFormatError,
    ScenarioConfig,
    generate_dataset,
    quintic_profile,
    quintic_profile_rate,
    read_dataset,
    read_manifest,
    write_dataset,
    write_manifest,
)


class TestQuinticProfile:
    def test_endpoints(self):
        assert quintic_profile(np.array(0.0)) == 0.0
        assert quintic_profile(np.array(1.0)) == 1.0

    def test_endpoint_rates_zero(self):
        assert quintic_profile_rate(np.array(0.0)) == 0.0
        assert quintic_profile_rate(np.array(1.0)) == 0.0

    def test_rate_matches_analytic_derivative(self):
        tau = np.linspace(0.05, 0.95, 19)
        h = 1e-7
        numeric = (quintic_profile(tau + h) - quintic_profile(tau - h)) / (2 * h)
        assert np.allclose(quintic_profile_rate(tau), numeric, atol=1e-5)

    def test_peak_rate_at_midpoint(self):
        assert quintic_profile_rate(np.array(0.5)) == pytest.approx(1.875)

    def test_monotone_inside(self):
        tau = np.linspace(0, 1, 101)
        y = quintic_profile(tau)
        assert np.all(np.diff(y) >= 0)

    def test_clamped_outside(self):
        assert quintic_profile(np.array(-0.5)) == 0.0
        assert quintic_profile(np.array(1.5)) == 1.0
        assert quintic_profile_rate(np.array(-0.5)) == 0.0


class TestScenarioConfig:
    def test_default_mix_sums_to_one(self):
        ScenarioConfig()  # must not raise

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(p_lane_keep=0.5, p_lane_change=0.5, p_cut_in=0.5, p_merge=0.0)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(p_lane_keep=1.4, p_lane_change=-0.4, p_cut_in=0.0, p_merge=0.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(lane_change_duration_min=5.0, lane_change_duration_max=4.0)

    def test_noise_vector_length(self):
        with pytest.raises(ValueError):
            ScenarioConfig(noise_std=(0.1, 0.1))


SMALL = ScenarioConfig(n_scenarios=6, vehicles_per_scenario=3, frames_per_record=55, seed=3)


class TestGenerateDataset:
    def test_record_shape_and_count(self):
        records, manifest = generate_dataset(SMALL)
        assert len(records) == 18
        for rec in records:
            assert rec.frames.shape == (55, 6)
            assert np.all(np.isfinite(rec.frames))
        assert manifest["n_records"] == 18

    def test_determinism_byte_identical(self, tmp_path):
        p1 = os.path.join(tmp_path, "a.jsonl")
        p2 = os.path.join(tmp_path, "b.jsonl")
        write_dataset(generate_dataset(SMALL)[0], p1)
        write_dataset(generate_dataset(SMALL)[0], p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_seed_changes_data(self):
        a, _ = generate_dataset(SMALL)
        b, _ = generate_dataset(ScenarioConfig(
            n_scenarios=6, vehicles_per_scenario=3, frames_per_record=55, seed=4))
        assert not np.array_equal(a[0].frames, b[0].frames)

    def test_splits_disjoint_and_cover(self):
        records, manifest = generate_dataset(SMALL)
        splits = manifest["splits"]
        train, val, test = (set(splits[k]) for k in ("train", "val", "test"))
        assert train & val == set() and train & test == set() and val & test == set()
        assert train | val | test == set(range(6))
        for name in ("train", "val", "test"):
            assert splits[name]  # all three populated

    def test_lane_keep_only_zero_noise_y_constant(self):
        cfg = ScenarioConfig(
            n_scenarios=3, vehicles_per_scenario=4, frames_per_record=40,
            p_lane_keep=1.0, p_lane_change=0.0, p_cut_in=0.0, p_merge=0.0,
            noise_std=(0.0,) * 6, ego_yaw_std=0.0, speed_jitter_std=0.0, seed=1,
        )
        records, _ = generate_dataset(cfg)
        for rec in records:
            y = rec.frames[:, 3]
            assert np.max(np.abs(y - y[0])) < 1e-9
            assert np.max(np.abs(rec.frames[:, 5])) < 1e-9  # vy

    def test_velocity_consistency_3sigma(self):
        cfg = ScenarioConfig(
            n_scenarios=4, vehicles_per_scenario=3, frames_per_record=50,
            noise_std=(0.1, 0.002, 0.2, 0.05, 0.2, 0.1), seed=9,
        )
        records, _ = generate_dataset(cfg)
        sigma = np.asarray(cfg.noise_std)
        # stored v = clean_v + n_v; fd of stored positions = clean_v + fd of
        # position noise: difference has std sqrt(2*s_pos^2/dt^2 + s_v^2)
        bound_x = 3 * np.sqrt(2 * sigma[2] ** 2 / 0.01 + sigma[4] ** 2)
        bound_y = 3 * np.sqrt(2 * sigma[3] ** 2 / 0.01 + sigma[5] ** 2)
        bad_x = bad_y = total = 0
        for rec in records:
            fd_x = np.diff(rec.frames[:, 2]) / 0.1
            fd_y = np.diff(rec.frames[:, 3]) / 0.1
            bad_x += int(np.sum(np.abs(fd_x - rec.frames[1:, 4]) > bound_x))
            bad_y += int(np.sum(np.abs(fd_y - rec.frames[1:, 5]) > bound_y))
            total += fd_x.size
        # 3 sigma: ~0.3% expected outliers; allow generous slack
        assert bad_x / total < 0.02
        assert bad_y / total < 0.02

    def test_velocity_consistency_exact_when_noiseless(self):
        cfg = ScenarioConfig(
            n_scenarios=3, vehicles_per_scenario=2, frames_per_record=40,
            noise_std=(0.0,) * 6, seed=2,
        )
        records, _ = generate_dataset(cfg)
        for rec in records:
            fd_x = np.diff(rec.frames[:, 2]) / 0.1
            assert np.allclose(fd_x, rec.frames[1:, 4], atol=1e-9)

    def test_in_map_positions_within_grid_ranges(self):
        grid = ogm.GridSpec()
        records, _ = generate_dataset(SMALL)
        for rec in records:
            for x, y in rec.frames[:, 2:4]:
                cell = ogm.quantize(float(x), float(y), grid)
                if cell.in_map:
                    assert grid.x_min <= x < grid.x_max
                    assert grid.y_min <= y <= grid.y_max

    def test_too_few_scenarios_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(ScenarioConfig(n_scenarios=2))


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path):
        records, manifest = generate_dataset(SMALL)
        path = os.path.join(tmp_path, "data.jsonl")
        write_dataset(records[:10], path)
        back = read_dataset(path)
        assert len(back) == 10
        for a, b in zip(records, back):
            assert a.scenario_id == b.scenario_id
            assert a.vehicle_id == b.vehicle_id
            assert np.array_equal(a.frames, b.frames)  # full 64-bit precision

    def test_manifest_roundtrip(self, tmp_path):
        records, manifest = generate_dataset(SMALL)
        path = os.path.join(tmp_path, "data.jsonl")
        write_dataset(records, path)
        write_manifest(manifest, path)
        # JSON carries tuples as lists; compare in JSON space
        assert read_manifest(path) == json.loads(json.dumps(manifest))

    def test_missing_field_names_it(self, tmp_path):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"scenario_id": 0, "frames": [[0.0] * 6]}) + "\n")
        with pytest.raises(DatasetFormatError, match="vehicle_id"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "key, value", [("scenario_id", "s1"), ("scenario_id", "3"), ("vehicle_id", 2.5), ("vehicle_id", True)]
    )
    def test_non_integer_id_names_line_and_field(self, tmp_path, key, value):
        path = os.path.join(tmp_path, "data.jsonl")
        obj = {"scenario_id": 0, "vehicle_id": 0, "frames": [[0.0] * 6]}
        with open(path, "w") as f:
            f.write(json.dumps(obj) + "\n")
            f.write(json.dumps({**obj, key: value}) + "\n")
        with pytest.raises(DatasetFormatError, match=rf"data\.jsonl:2: field '{key}' must be an integer"):
            read_dataset(path)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_non_object_line_names_it(self, tmp_path, line):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"scenario_id": 0, "vehicle_id": 0, "frames": [[0.0] * 6]}) + "\n")
            f.write(line + "\n")
        with pytest.raises(DatasetFormatError, match=r"data\.jsonl:2: record must be a JSON object"):
            read_dataset(path)

    def test_malformed_line_numbered(self, tmp_path):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"scenario_id": 0, "vehicle_id": 0, "frames": [[0.0] * 6]}) + "\n")
            f.write("{broken json\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            read_dataset(path)

    def test_wrong_frame_width_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"scenario_id": 0, "vehicle_id": 0, "frames": [[0.0] * 5]}) + "\n")
        with pytest.raises(DatasetFormatError, match="6 features"):
            read_dataset(path)

    def test_ragged_frame_rows_name_scenario_vehicle(self, tmp_path):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"scenario_id": 0, "vehicle_id": 0, "frames": [[0.0] * 6]}) + "\n")
            f.write(json.dumps({"scenario_id": 2, "vehicle_id": 5, "frames": [[0.0] * 6, [0.0] * 5]}) + "\n")
        with pytest.raises(DatasetFormatError, match=r"data\.jsonl:2: scenario 2 vehicle 5: frames must be rows of 6"):
            read_dataset(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_frame_names_scenario_vehicle_frame(self, tmp_path, bad):
        records, _ = generate_dataset(SMALL)
        records[3].frames[7, 2] = bad
        path = os.path.join(tmp_path, "data.jsonl")
        write_dataset(records[:5], path)
        where = f"scenario {records[3].scenario_id} vehicle {records[3].vehicle_id}: .* frame 7"
        with pytest.raises(DatasetFormatError, match=where):
            read_dataset(path)

    def test_missing_manifest_reported(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="manifest"):
            read_manifest(os.path.join(tmp_path, "nothing.jsonl"))
