"""Synthetic generator: quintic profile math, frame consistency, determinism,
persistence round trips, split discipline."""

import hashlib
import json
import math
import os
import re
import tempfile
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast import ogm
from gridcast.datagen import (
    FRAME_DT,
    MANEUVERS,
    DatasetFormatError,
    ScenarioConfig,
    TrajectoryRecord,
    generate_dataset,
    quintic_profile,
    read_dataset,
    read_manifest,
    write_dataset,
    write_manifest,
    _ego_rows,
    _ou_normals,
    _ou_rows,
)


def central_rate(tau, h=1e-7):
    """d/dtau of quintic_profile by central difference."""
    return (quintic_profile(tau + h) - quintic_profile(tau - h)) / (2 * h)


class TestQuinticProfile:
    def test_endpoints(self):
        assert quintic_profile(np.array(0.0)) == 0.0
        assert quintic_profile(np.array(1.0)) == 1.0

    def test_endpoint_rates_zero(self):
        # the difference quotient's rounding noise is ~1e-9 at h = 1e-7
        assert abs(central_rate(np.array(0.0))) < 1e-6
        assert abs(central_rate(np.array(1.0))) < 1e-6

    def test_rate_matches_analytic_derivative(self):
        tau = np.linspace(0.05, 0.95, 19)
        assert np.allclose(central_rate(tau), 30.0 * tau**2 * (1.0 - tau) ** 2, atol=1e-5)

    def test_peak_rate_at_midpoint(self):
        assert central_rate(np.array(0.5)) == pytest.approx(1.875)

    def test_monotone_inside(self):
        tau = np.linspace(0, 1, 101)
        y = quintic_profile(tau)
        assert np.all(np.diff(y) >= 0)

    def test_clamped_outside(self):
        assert quintic_profile(np.array(-0.5)) == 0.0
        assert quintic_profile(np.array(1.5)) == 1.0
        assert central_rate(np.array(-0.5)) == 0.0


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

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_vehicles_rejected(self, count):
        with pytest.raises(ValueError, match="vehicles_per_scenario"):
            ScenarioConfig(vehicles_per_scenario=count)

    @pytest.mark.parametrize("frames", [1, 0])
    def test_fewer_than_two_frames_rejected(self, frames):
        # a record's first velocity is its second frame's backward difference
        with pytest.raises(ValueError, match="frames_per_record"):
            ScenarioConfig(frames_per_record=frames)

    @pytest.mark.parametrize("name", ["ego_yaw_std", "speed_jitter_std"])
    def test_negative_ou_std_rejected_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -0.5$"):
            ScenarioConfig(**{name: -0.5})
        ScenarioConfig(**{name: 0.0})  # no motion texture

    def test_speed_range_checked(self):
        with pytest.raises(ValueError, match=r"^speed_min = 40.0 exceeds speed_max = 35.0$"):
            ScenarioConfig(speed_min=40.0)
        ScenarioConfig(speed_min=30.0, speed_max=30.0)  # a constant speed


SMALL = ScenarioConfig(n_scenarios=6, vehicles_per_scenario=3, frames_per_record=55, seed=3)


def ou_series_reference(rng, n, stationary_std, theta):
    """The scalar-draw loop: one standard_normal() call per value."""
    rho = math.exp(-theta * FRAME_DT)
    innovation = stationary_std * math.sqrt(1.0 - rho * rho)
    out = np.empty(n)
    value = stationary_std * rng.standard_normal() if stationary_std > 0 else 0.0
    for k in range(n):
        out[k] = value
        value = rho * value + innovation * rng.standard_normal()
    return out


def ego_track_reference(rng, config, n):
    """The per-frame loop: each position is the previous one plus a step."""
    speed = rng.uniform(config.speed_min, config.speed_max)
    yaw_rate = ou_series_reference(rng, n, config.ego_yaw_std, theta=1.0)
    heading = np.concatenate([[0.0], np.cumsum(yaw_rate[:-1] * FRAME_DT)])
    ego_lane = (config.lane_count - 1) // 2
    pos = np.empty((n, 2))
    pos[0] = (0.0, (ego_lane - (config.lane_count - 1) / 2.0) * config.lane_width)
    for k in range(1, n):
        step = speed * FRAME_DT
        pos[k] = pos[k - 1] + step * np.array([math.cos(heading[k - 1]), math.sin(heading[k - 1])])
    return speed, yaw_rate, heading, pos, ego_lane


class TestAgainstLoops:
    """The row forms produce each row's loop bits, and the draws they take
    leave each generator where the loops leave it."""

    @pytest.mark.parametrize("std", [0.0, 0.004, 0.7])
    def test_ou_series(self, std):
        a = [np.random.default_rng([4, r]) for r in range(5)]
        b = [np.random.default_rng([4, r]) for r in range(5)]
        rows = _ou_rows(np.array([_ou_normals(rng, 62, std) for rng in a]), std, 1.0)
        for row, rng_a, rng_b in zip(rows, a, b):
            assert row.tobytes() == ou_series_reference(rng_b, 62, std, 1.0).tobytes()
            assert rng_a.standard_normal(3).tobytes() == rng_b.standard_normal(3).tobytes()

    @pytest.mark.parametrize("lane_count, yaw_std", [(3, 0.004), (2, 0.05), (4, 0.0)])
    def test_ego_track(self, lane_count, yaw_std):
        config = ScenarioConfig(lane_count=lane_count, ego_yaw_std=yaw_std)
        a = [np.random.default_rng([9, r]) for r in range(5)]
        b = [np.random.default_rng([9, r]) for r in range(5)]
        # the ego's draws as generate_dataset takes them
        speed, normals = map(np.array, zip(*[
            (rng.uniform(config.speed_min, config.speed_max), _ou_normals(rng, 62, yaw_std)) for rng in a
        ]))
        got = _ego_rows(speed, normals, config)
        for k, (rng_a, rng_b) in enumerate(zip(a, b)):
            expected = ego_track_reference(rng_b, config, 62)
            assert speed[k] == expected[0] and config.ego_lane == expected[4]
            for x, y in zip(got, expected[1:4]):
                assert x[k].tobytes() == y.tobytes()
            assert rng_a.standard_normal(3).tobytes() == rng_b.standard_normal(3).tobytes()


# ---------------------------------------------------------------------------
# the per-vehicle generator, kept as generate_dataset's reference: each
# scenario's ego, then each vehicle's track and frames, computed straight
# after that vehicle's draws
# ---------------------------------------------------------------------------


def loop_ou_series(rng, n, stationary_std, theta):
    rho = math.exp(-theta * FRAME_DT)
    innovation = stationary_std * math.sqrt(1.0 - rho * rho)
    normals = rng.standard_normal(n + 1 if stationary_std > 0 else n).tolist()
    value = stationary_std * normals.pop(0) if stationary_std > 0 else 0.0
    out = []
    for z in normals:
        out.append(value)
        value = rho * value + innovation * z
    return np.array(out)


def loop_lane_center(lane, config):
    return (lane - (config.lane_count - 1) / 2.0) * config.lane_width


def loop_ego_track(rng, config, n):
    speed = rng.uniform(config.speed_min, config.speed_max)
    yaw_rate = loop_ou_series(rng, n, config.ego_yaw_std, theta=1.0)
    heading = np.concatenate([[0.0], np.cumsum(yaw_rate[:-1] * FRAME_DT)])
    ego_lane = (config.lane_count - 1) // 2
    step = speed * FRAME_DT
    steps = [(0.0, loop_lane_center(ego_lane, config))]
    steps += [(step * math.cos(h), step * math.sin(h)) for h in heading[:-1].tolist()]
    pos = np.add.accumulate(np.array(steps), axis=0)
    return speed, yaw_rate, heading, pos, ego_lane


def loop_vehicle_track(rng, config, ego_lane, n):
    maneuver = rng.choice(len(MANEUVERS), p=config.maneuver_probs)
    name = MANEUVERS[maneuver]
    total_time = n * FRAME_DT

    if name == "lane_keep":
        start_lane = int(rng.integers(0, config.lane_count))
        target_lane = start_lane
    elif name == "lane_change":
        start_lane = int(rng.integers(0, config.lane_count))
        candidates = [l for l in (start_lane - 1, start_lane + 1) if 0 <= l < config.lane_count]
        target_lane = int(rng.choice(candidates))
    elif name == "cut_in":
        candidates = [l for l in (ego_lane - 1, ego_lane + 1) if 0 <= l < config.lane_count]
        start_lane = int(rng.choice(candidates))
        target_lane = ego_lane
    else:
        start_lane = config.lane_count
        target_lane = config.lane_count - 1

    if name == "cut_in":
        x0 = rng.uniform(10.0, 40.0)
    elif name == "merge":
        x0 = rng.uniform(20.0, 80.0)
    else:
        x0 = rng.uniform(15.0, 130.0)

    speed = rng.uniform(config.speed_min, config.speed_max)
    jitter = loop_ou_series(rng, n, config.speed_jitter_std, theta=1.0)
    x = x0 + np.concatenate([[0.0], np.cumsum((speed + jitter[:-1]) * FRAME_DT)])

    y0 = loop_lane_center(start_lane, config)
    y1 = loop_lane_center(target_lane, config)
    if start_lane == target_lane:
        y = np.full(n, y0)
    else:
        duration = rng.uniform(config.lane_change_duration_min, config.lane_change_duration_max)
        duration = min(duration, total_time - 1.0)
        t_start = rng.uniform(0.2, max(0.21, total_time - duration - 0.2))
        tau = (np.arange(n) * FRAME_DT - t_start) / duration
        y = y0 + (y1 - y0) * quintic_profile(tau)
    return np.column_stack([x, y])


def loop_relative_frames(ego_speed, ego_yaw_rate, ego_heading, ego_pos, vehicle_pos, noise_std, rng):
    n = ego_pos.shape[0]
    diff = vehicle_pos - ego_pos
    cos_h = np.cos(ego_heading)
    sin_h = np.sin(ego_heading)
    rel_x = cos_h * diff[:, 0] + sin_h * diff[:, 1]
    rel_y = -sin_h * diff[:, 0] + cos_h * diff[:, 1]
    vel_x = np.empty(n)
    vel_y = np.empty(n)
    vel_x[1:] = np.diff(rel_x) / FRAME_DT
    vel_y[1:] = np.diff(rel_y) / FRAME_DT
    vel_x[0] = vel_x[1]
    vel_y[0] = vel_y[1]
    frames = np.column_stack([np.full(n, ego_speed), ego_yaw_rate, rel_x, rel_y, vel_x, vel_y])
    sigma = np.asarray(noise_std)
    if np.any(sigma > 0):
        frames = frames + sigma * rng.standard_normal(frames.shape)
    return frames


def loop_dataset(config):
    count = config.n_scenarios
    records = []
    n = config.frames_per_record
    for sid in range(count):
        rng = np.random.default_rng([config.seed, sid])
        ego_speed, ego_yaw, ego_heading, ego_pos, ego_lane = loop_ego_track(rng, config, n)
        for vid in range(config.vehicles_per_scenario):
            world = loop_vehicle_track(rng, config, ego_lane, n)
            frames = loop_relative_frames(ego_speed, ego_yaw, ego_heading, ego_pos, world, config.noise_std, rng)
            records.append(TrajectoryRecord(scenario_id=sid, vehicle_id=vid, frames=frames))

    split_rng = np.random.default_rng([config.seed, 0xBEEF])
    order = list(split_rng.permutation(count))
    n_test = max(1, int(round(count * config.test_frac)))
    n_val = max(1, int(round((count - n_test) * config.val_frac)))
    test_ids = sorted(int(s) for s in order[:n_test])
    val_ids = sorted(int(s) for s in order[n_test : n_test + n_val])
    train_ids = sorted(int(s) for s in order[n_test + n_val :])
    manifest = {
        "config": asdict(config),
        "n_scenarios": count,
        "n_records": len(records),
        "splits": {"train": train_ids, "val": val_ids, "test": test_ids},
    }
    return records, manifest


_MIXES = [
    (0.15, 0.45, 0.25, 0.15),  # the default
    (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0),
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),  # integer-typed
    (0.5, 0.0, 0.5, 0.0), (0.0, 0.3, 0, 0.7), (0.1, 0.2, 0.3, 0.4),
    (0.7, 0.1, 0.1, 0.1),  # sums to 1 - 2**-53: the cdf is divided by its last entry
]
_noise = st.one_of(st.just((0.0,) * 6), st.tuples(*[st.sampled_from((0.0, 0.003, 0.3, 1))] * 6))
_configs = st.builds(
    lambda mix, **fields: ScenarioConfig(**fields, **dict(zip(("p_lane_keep", "p_lane_change", "p_cut_in", "p_merge"), mix))),
    mix=st.sampled_from(_MIXES),
    n_scenarios=st.integers(3, 7),
    vehicles_per_scenario=st.integers(1, 6),
    frames_per_record=st.integers(2, 80),
    lane_count=st.integers(2, 6),
    ego_yaw_std=st.sampled_from((0.0, 0.004, 0.05)),
    speed_jitter_std=st.sampled_from((0.0, 0.7)),
    noise_std=_noise,
    seed=st.integers(0, 2**32 - 1),
)


class TestAgainstReference:
    """generate_dataset draws each scenario's numbers in its stream's order
    and computes every track as rows; the per-vehicle reference computes
    each track straight after its draws. Both give the same bytes."""

    @settings(deadline=None, max_examples=120)
    @given(config=_configs)
    def test_matches_the_per_vehicle_loop(self, config):
        # a record of 1 s leaves a lane change no time: tau divides by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            records, manifest = generate_dataset(config)
            expected, expected_manifest = loop_dataset(config)
        assert [(r.scenario_id, r.vehicle_id) for r in records] == [(r.scenario_id, r.vehicle_id) for r in expected]
        assert all(type(r.scenario_id) is int and type(r.vehicle_id) is int for r in records)
        for got, want in zip(records, expected):
            assert got.frames.shape == want.frames.shape and got.frames.dtype == want.frames.dtype
            assert got.frames.tobytes() == want.frames.tobytes()
        assert json.dumps(manifest, sort_keys=True) == json.dumps(expected_manifest, sort_keys=True)


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

    # sha256 of the dataset and manifest bytes: a change to the random
    # stream, to the float arithmetic or to the formatting fails here
    GOLDEN = {
        "ou_noise": (
            ScenarioConfig(n_scenarios=6, vehicles_per_scenario=4, frames_per_record=51, seed=5),
            "d38bed3e7f7434819cc0ef446fbf9e8d13ae017957fcec9be6cc92388d937fd8",
            "f21d80911a8048cdb90f715ce14f5cd4a3f5b39568132b8486bb7af718fe38a8",
        ),
        "zero_ou_noise": (
            ScenarioConfig(
                n_scenarios=6, vehicles_per_scenario=4, frames_per_record=51, seed=5,
                ego_yaw_std=0.0, speed_jitter_std=0.0,
            ),
            "51f12ac3ca91ea292529c6c73d8d7a82bb8d425af64163cbde35ade8a8b1e1de",
            "c538484cbbf039eeb6f3e0569b28dd5d25ffe1b41fc8011bbc8bfbfc3e87c3fc",
        ),
        # the ego starts off the road axis and turns by up to ~0.1 rad/s
        "two_lanes_strong_yaw": (
            ScenarioConfig(
                n_scenarios=6, vehicles_per_scenario=4, frames_per_record=51, seed=5,
                lane_count=2, ego_yaw_std=0.05,
            ),
            "db568149d96ed6b953130225a44ea20d9db78884ed1821f0f0a2ae8a59ed30bc",
            "8a2462d706ec7190f37483395a55aecd41413877d28ba2baae76cdf735ad4049",
        ),
        # the default 62 frames, 5 vehicles, noise and maneuver mix: the
        # benchmark's data_kalman set
        "default_40_scenarios": (
            ScenarioConfig(n_scenarios=40, seed=411),
            "feb4556312e488daf116a2864036ab229b689e982ceb864ba51f0985363b4f2d",
            "22dc89b18644d83a642da9c01fb65ccfa5c45f93b1596407353c31b6df99aa6c",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, name):
        config, dataset_sha, manifest_sha = self.GOLDEN[name]
        records, manifest = generate_dataset(config)
        path = os.path.join(tmp_path, "data.jsonl")
        write_dataset(records, path)
        write_manifest(manifest, path)
        digest = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
        assert digest(path) == dataset_sha
        assert digest(path + ".manifest.json") == manifest_sha

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


# a manifest with valid splits around the binding text
_BOUND = '{{"splits": {{"train": [0], "val": [1], "test": [2]}}, "dataset": {}}}'


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

    def test_bound_manifest_reads_back_without_its_binding(self, tmp_path):
        records, manifest = generate_dataset(SMALL)
        path = os.path.join(tmp_path, "data.jsonl")
        write_manifest(manifest, path, dataset=write_dataset(records, path))
        assert "dataset" in json.loads(open(path + ".manifest.json").read())
        assert read_manifest(path) == json.loads(json.dumps(manifest))

    def test_binding_is_the_written_bytes(self, tmp_path):
        records, manifest = generate_dataset(SMALL)
        path = os.path.join(tmp_path, "data.jsonl")
        binding = write_dataset(records, path)
        data = open(path, "rb").read()
        assert (binding["bytes"], binding["crc32"]) == (len(data), zlib.crc32(data))
        # one run per scenario: the generator writes each scenario's vehicles together
        assert binding["index"] == [[sid, 3] for sid in range(6)]

    def test_bound_read_names_the_dataset_line(self, tmp_path):
        # the index gives each selected line its number in the whole file
        path = os.path.join(tmp_path, "data.jsonl")
        row = [0.0] * 6
        lines = [
            json.dumps({"scenario_id": sid, "vehicle_id": 0, "frames": frames}).encode() + b"\n"
            for sid, frames in ((0, [row]), (1, [row]), (2, [row, [1.0]]))
        ]
        data = b"".join(lines)
        with open(path, "wb") as f:
            f.write(data)
        binding = {"bytes": len(data), "crc32": zlib.crc32(data), "index": [[sid, 1] for sid in range(3)]}
        write_manifest({"splits": {"train": [0], "val": [1], "test": [2]}}, path, dataset=binding)
        with pytest.raises(DatasetFormatError, match=r"data\.jsonl:3: scenario 2 vehicle 0: frames must be rows of 6"):
            read_dataset(path, splits=("test",))
        assert [len(recs) for recs in read_dataset(path, splits=("train", "val"))[0].values()] == [1, 1]

    @pytest.mark.parametrize(
        "edit, message",
        [
            # one line moved from the first run to the second: scenario 0's
            # last line falls in scenario 1's run
            (lambda index: [[0, 2], [1, 4]] + index[2:], r"field 'dataset\.index' run 1 does not match"),
            (lambda index: [index[1], index[0]] + index[2:], r"field 'dataset\.index' run 0 does not match"),
            (lambda index: index[:-1], r"field 'dataset\.index' covers 15 lines of .*data\.jsonl's 18"),
            (lambda index: index + [[9, 1]], r"field 'dataset\.index' covers 19 lines of .*data\.jsonl's 18"),
        ],
        ids=["moved-line", "swapped-ids", "short", "long"],
    )
    def test_index_that_does_not_match_the_lines_names_the_manifest(self, tmp_path, edit, message):
        records, manifest = generate_dataset(SMALL)
        path = os.path.join(tmp_path, "data.jsonl")
        binding = write_dataset(records, path)
        write_manifest(manifest, path, dataset={**binding, "index": edit(binding["index"])})
        with pytest.raises(DatasetFormatError, match=r"data\.jsonl\.manifest\.json: " + message):
            read_dataset(path, splits=("train", "val", "test"))

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

    def test_invalid_utf8_line_numbered(self, tmp_path):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path, "wb") as f:
            f.write(json.dumps({"scenario_id": 0, "vehicle_id": 0, "frames": [[0.0] * 6]}).encode() + b"\n")
            f.write(b'{"scenario_id": 0, "vehicle_id": 1, "frames": [[\xff]]}\n')
        with pytest.raises(DatasetFormatError, match=r"data\.jsonl:2: invalid JSON \('utf-8' codec can't decode"):
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

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{}", "missing field 'splits'"),
            ('{"splits": [0, 1]}', "field 'splits' must be an object"),
            ('{"splits": {"train": [0], "val": [1]}}', "missing field 'splits.test'"),
            ("[]", "manifest must be a JSON object"),
            ('{"splits": {"train": "abc", "val": [1], "test": [2]}}', "field 'splits.train' must be a list of integer"),
            ('{"splits": {"train": [0], "val": [1.5], "test": [2]}}', "field 'splits.val' must be a list of integer"),
            ('{"splits": {"train": [0], "val": [1], "test": [true]}}', "field 'splits.test' must be a list of integer"),
            ("{broken", "invalid JSON"),
            (_BOUND.format("[]"), "field 'dataset' must be an object"),
            (_BOUND.format('{"bytes": 1, "crc32": 0}'), "missing field 'dataset.index'"),
            (_BOUND.format('{"bytes": -1, "crc32": 0, "index": []}'), "field 'dataset.bytes' must be a non-negative integer"),
            (_BOUND.format('{"bytes": 0, "crc32": 4294967296, "index": []}'), "field 'dataset.crc32' must be an integer in [0, 2**32)"),
            (_BOUND.format('{"bytes": 5, "crc32": 0, "index": [[0, 1, 5]]}'), "field 'dataset.index' must be a list of [scenario_id, lines] runs"),
            (_BOUND.format('{"bytes": 5, "crc32": 0, "index": [[0, 0]]}'), "field 'dataset.index' must be a list of [scenario_id, lines] runs"),
            (_BOUND.format('{"bytes": 5, "crc32": 0, "index": [[0, true]]}'), "field 'dataset.index' must be a list of [scenario_id, lines] runs"),
        ],
        ids=[
            "empty", "splits-list", "no-test", "list", "string-ids", "float-id", "bool-id", "invalid-json",
            "binding-list", "no-index", "negative-bytes", "crc-range", "run-width", "empty-run", "bool-lines",
        ],
    )
    def test_malformed_manifest_names_path_and_field(self, tmp_path, text, field):
        path = os.path.join(tmp_path, "data.jsonl")
        with open(path + ".manifest.json", "w") as f:
            f.write(text)
        with pytest.raises(DatasetFormatError, match=rf"data\.jsonl\.manifest\.json: {re.escape(field)}"):
            read_manifest(path)


# records of scenarios 0-5 in any order, each with 1-3 frames of small numbers
_records = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 9),
        st.lists(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6), min_size=1, max_size=3),
    ),
    max_size=12,
).map(lambda rows: [TrajectoryRecord(sid, vid, np.array(frames)) for sid, vid, frames in rows])
_splits = st.lists(st.sampled_from(("train", "val", "test")), min_size=6, max_size=6).map(
    lambda names: {name: [sid for sid in range(6) if names[sid] == name] for name in ("train", "val", "test")}
)
_selections = st.lists(st.sampled_from(("train", "val", "test")), min_size=1, max_size=3, unique=True).map(tuple)


class TestIndex:
    """A bound manifest's index selects the same records as filtering the
    whole file by split, whatever the order of the records; an unbound
    manifest selects from the whole file."""

    @settings(deadline=None, max_examples=60)
    @given(records=_records, splits=_splits, names=_selections, bound=st.booleans())
    def test_selection_equals_the_filtered_file(self, records, splits, names, bound):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            binding = write_dataset(records, path)
            write_manifest({"splits": splits}, path, dataset=binding if bound else None)
            everything = read_dataset(path)
            by_split, parsed = read_dataset(path, splits=names)
        assert list(by_split) == list(names)
        for name in names:
            expected = [rec for rec in everything if rec.scenario_id in splits[name]]
            got = by_split[name]
            assert [(r.scenario_id, r.vehicle_id) for r in got] == [(r.scenario_id, r.vehicle_id) for r in expected]
            assert all(np.array_equal(a.frames, b.frames) for a, b in zip(got, expected))
        if bound:
            assert parsed == sum(len(by_split[name]) for name in names)
            assert sum(run[1] for run in binding["index"]) == len(records)
        else:
            assert parsed == len(records)
