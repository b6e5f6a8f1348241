"""Synthetic highway trajectory generator.

Replaces a proprietary radar dataset with a controllable stand-in: per
scenario, an ego track (constant speed, mild Ornstein-Uhlenbeck yaw
perturbation) and several surrounding-vehicle tracks drawn from a maneuver
mix of lane keeps, lane changes, cut-ins ahead of the ego, and merges from a
ramp lane. Lateral maneuvers follow a quintic (minimum-jerk) profile with
zero endpoint velocity and acceleration; longitudinal speed carries a small
mean-reverting perturbation.

World tracks are transformed into the ego frame (rotate by ego heading,
translate to the ego origin); relative velocity is the backward difference of
the relative positions. Gaussian measurement noise is then added per feature.
Frames tick at 100 ms.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "ScenarioConfig",
    "TrajectoryRecord",
    "DatasetFormatError",
    "quintic_profile",
    "quintic_profile_rate",
    "generate_dataset",
    "write_dataset",
    "read_dataset",
    "write_manifest",
    "read_manifest",
]

FRAME_DT = 0.1

MANEUVERS = ("lane_keep", "lane_change", "cut_in", "merge")


@dataclass(frozen=True)
class ScenarioConfig:
    lane_count: int = 3
    lane_width: float = 3.5
    speed_min: float = 20.0
    speed_max: float = 35.0
    # maneuver mix, must sum to 1; lateral maneuvers are the structure a
    # constant-velocity extrapolation cannot follow
    p_lane_keep: float = 0.15
    p_lane_change: float = 0.45
    p_cut_in: float = 0.25
    p_merge: float = 0.15
    lane_change_duration_min: float = 2.8
    lane_change_duration_max: float = 4.2
    # measurement noise std per feature (v, yaw_rate, x, y, vx, vy)
    noise_std: tuple[float, ...] = (0.15, 0.003, 0.3, 0.08, 0.3, 0.12)
    frames_per_record: int = 62
    vehicles_per_scenario: int = 5
    n_scenarios: int = 30
    test_frac: float = 0.15
    val_frac: float = 0.15  # of the non-test scenarios
    seed: int = 0
    # internal motion texture: the ego's yaw wobble rotates the relative
    # frame (apparent lateral motion at range), speed jitter mean-reverts;
    # both are visible in the observation features but break constant-
    # velocity extrapolation
    ego_yaw_std: float = 0.004  # rad/s, OU stationary std
    speed_jitter_std: float = 0.7  # m/s, OU stationary std

    def __post_init__(self) -> None:
        mix = self.p_lane_keep + self.p_lane_change + self.p_cut_in + self.p_merge
        if not math.isclose(mix, 1.0, abs_tol=1e-9):
            raise ValueError(f"maneuver mix sums to {mix}, must be 1")
        if min(self.p_lane_keep, self.p_lane_change, self.p_cut_in, self.p_merge) < 0:
            raise ValueError("maneuver probabilities must be non-negative")
        if self.lane_change_duration_min <= 0 or self.lane_change_duration_max < self.lane_change_duration_min:
            raise ValueError("lane change duration range invalid")
        if not 2 <= self.lane_count <= 6:
            raise ValueError("lane_count out of the supported 2..6 range")
        if len(self.noise_std) != 6 or any(s < 0 for s in self.noise_std):
            raise ValueError("noise_std must be six non-negative values")

    @property
    def maneuver_probs(self) -> np.ndarray:
        return np.array([self.p_lane_keep, self.p_lane_change, self.p_cut_in, self.p_merge])


@dataclass(eq=False)
class TrajectoryRecord:
    """One surrounding vehicle's observation sequence at 100 ms spacing.
    world_xy (the vehicle's true world positions) is debugging-only and is
    not persisted."""

    scenario_id: int
    vehicle_id: int
    frames: np.ndarray  # (F, 6): v, yaw_rate, x, y, vx, vy
    world_xy: np.ndarray | None = field(default=None, repr=False)


class DatasetFormatError(ValueError):
    pass


def quintic_profile(tau: np.ndarray) -> np.ndarray:
    """Minimum-jerk 0 -> 1 transition on tau in [0, 1]; zero velocity and
    acceleration at both ends."""
    t = np.clip(tau, 0.0, 1.0)
    return 10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5


def quintic_profile_rate(tau: np.ndarray) -> np.ndarray:
    """d/dtau of quintic_profile (zero outside [0, 1])."""
    t = np.asarray(tau, dtype=np.float64)
    inside = (t >= 0.0) & (t <= 1.0)
    return np.where(inside, 30.0 * t**2 - 60.0 * t**3 + 30.0 * t**4, 0.0)


def _ou_series(rng: np.random.Generator, n: int, stationary_std: float, theta: float) -> np.ndarray:
    """Mean-zero Ornstein-Uhlenbeck samples at FRAME_DT spacing."""
    rho = math.exp(-theta * FRAME_DT)
    innovation = stationary_std * math.sqrt(1.0 - rho * rho)
    out = np.empty(n)
    value = stationary_std * rng.standard_normal() if stationary_std > 0 else 0.0
    for k in range(n):
        out[k] = value
        value = rho * value + innovation * rng.standard_normal()
    return out


def _lane_center(lane: int, config: ScenarioConfig) -> float:
    # lanes centered around the road axis; an index of lane_count is the ramp
    return (lane - (config.lane_count - 1) / 2.0) * config.lane_width


def _ego_track(rng: np.random.Generator, config: ScenarioConfig, n: int):
    speed = rng.uniform(config.speed_min, config.speed_max)
    yaw_rate = _ou_series(rng, n, config.ego_yaw_std, theta=1.0)
    heading = np.concatenate([[0.0], np.cumsum(yaw_rate[:-1] * FRAME_DT)])
    ego_lane = (config.lane_count - 1) // 2
    pos = np.empty((n, 2))
    pos[0] = (0.0, _lane_center(ego_lane, config))
    for k in range(1, n):
        step = speed * FRAME_DT
        pos[k] = pos[k - 1] + step * np.array([math.cos(heading[k - 1]), math.sin(heading[k - 1])])
    return speed, yaw_rate, heading, pos, ego_lane


def _vehicle_track(rng: np.random.Generator, config: ScenarioConfig, ego_lane: int, n: int) -> np.ndarray:
    """World (x, y) positions of one surrounding vehicle."""
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
    else:  # merge: ramp lane outside the outermost lane
        start_lane = config.lane_count
        target_lane = config.lane_count - 1

    if name == "cut_in":
        x0 = rng.uniform(10.0, 40.0)
    elif name == "merge":
        x0 = rng.uniform(20.0, 80.0)
    else:
        x0 = rng.uniform(15.0, 130.0)

    speed = rng.uniform(config.speed_min, config.speed_max)
    jitter = _ou_series(rng, n, config.speed_jitter_std, theta=1.0)
    x = x0 + np.concatenate([[0.0], np.cumsum((speed + jitter[:-1]) * FRAME_DT)])

    y0 = _lane_center(start_lane, config)
    y1 = _lane_center(target_lane, config)
    if start_lane == target_lane:
        y = np.full(n, y0)
    else:
        duration = rng.uniform(config.lane_change_duration_min, config.lane_change_duration_max)
        duration = min(duration, total_time - 1.0)
        t_start = rng.uniform(0.2, max(0.21, total_time - duration - 0.2))
        tau = (np.arange(n) * FRAME_DT - t_start) / duration
        y = y0 + (y1 - y0) * quintic_profile(tau)
    return np.column_stack([x, y])


def _relative_frames(
    ego_speed: float,
    ego_yaw_rate: np.ndarray,
    ego_heading: np.ndarray,
    ego_pos: np.ndarray,
    vehicle_pos: np.ndarray,
    noise_std,
    rng: np.random.Generator,
) -> np.ndarray:
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


def generate_dataset(config: ScenarioConfig, n_scenarios: int | None = None):
    """All scenarios' records plus the split manifest.

    Scenario k uses its own generator seeded from (config.seed, k), so
    scenarios are independent and the whole dataset is reproducible.
    Returns (records, manifest) where manifest carries the config and the
    train/val/test scenario-id splits (split by scenario, never by window).
    """
    count = config.n_scenarios if n_scenarios is None else n_scenarios
    if count < 3:
        raise ValueError("need at least 3 scenarios to populate all three splits")
    records: list[TrajectoryRecord] = []
    n = config.frames_per_record
    for sid in range(count):
        rng = np.random.default_rng([config.seed, sid])
        ego_speed, ego_yaw, ego_heading, ego_pos, ego_lane = _ego_track(rng, config, n)
        for vid in range(config.vehicles_per_scenario):
            world = _vehicle_track(rng, config, ego_lane, n)
            frames = _relative_frames(
                ego_speed, ego_yaw, ego_heading, ego_pos, world, config.noise_std, rng
            )
            records.append(TrajectoryRecord(scenario_id=sid, vehicle_id=vid, frames=frames, world_xy=world))

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


# ---------------------------------------------------------------------------
# persistence: one JSON object per line, numbers at full 64-bit precision
# ---------------------------------------------------------------------------


def write_dataset(records: list[TrajectoryRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            obj = {
                "scenario_id": rec.scenario_id,
                "vehicle_id": rec.vehicle_id,
                "frames": [[float(v) for v in row] for row in rec.frames],
            }
            f.write(json.dumps(obj) + "\n")


def read_dataset(path: str) -> list[TrajectoryRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            for key in ("scenario_id", "vehicle_id", "frames"):
                if key not in obj:
                    raise DatasetFormatError(f"{path}:{lineno}: missing field {key!r}")
            for key in ("scenario_id", "vehicle_id"):
                if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                    raise DatasetFormatError(f"{path}:{lineno}: field {key!r} must be an integer, got {obj[key]!r}")
            sid, vid = obj["scenario_id"], obj["vehicle_id"]
            where = f"{path}:{lineno}: scenario {sid} vehicle {vid}"
            try:
                frames = np.asarray(obj["frames"], dtype=np.float64)
            except (TypeError, ValueError):  # ragged rows or non-numbers form no array
                frames = None
            if frames is None or frames.ndim != 2 or frames.shape[1] != 6:
                raise DatasetFormatError(f"{where}: frames must be rows of 6 features")
            bad = np.flatnonzero(~np.isfinite(frames).all(axis=1))
            if bad.size:
                raise DatasetFormatError(f"{where}: non-finite value in frame {bad[0]}")
            records.append(TrajectoryRecord(scenario_id=sid, vehicle_id=vid, frames=frames))
    return records


def manifest_path(dataset_path: str) -> str:
    return dataset_path + ".manifest.json"


def write_manifest(manifest: dict, dataset_path: str) -> None:
    with open(manifest_path(dataset_path), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def read_manifest(dataset_path: str) -> dict:
    path = manifest_path(dataset_path)
    if not os.path.exists(path):
        raise DatasetFormatError(f"missing manifest {path}")
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
