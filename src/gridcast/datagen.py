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
Frames tick every FRAME_DT (100 ms).
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .seq2seq import FRAME_DT, write_atomic

__all__ = [
    "ScenarioConfig",
    "TrajectoryRecord",
    "DatasetFormatError",
    "quintic_profile",
    "generate_dataset",
    "write_dataset",
    "read_dataset",
    "write_manifest",
    "read_manifest",
    "split_positions",
]

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
        if self.vehicles_per_scenario < 1:
            raise ValueError(f"vehicles_per_scenario must be at least 1, got {self.vehicles_per_scenario}")
        if self.frames_per_record < 2:
            raise ValueError(f"frames_per_record must be at least 2, got {self.frames_per_record}")
        if self.speed_min > self.speed_max:
            raise ValueError(f"speed_min = {self.speed_min} exceeds speed_max = {self.speed_max}")
        for name in ("ego_yaw_std", "speed_jitter_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def maneuver_probs(self) -> np.ndarray:
        return np.array([self.p_lane_keep, self.p_lane_change, self.p_cut_in, self.p_merge])

    @property
    def ego_lane(self) -> int:
        return (self.lane_count - 1) // 2


@dataclass(eq=False)
class TrajectoryRecord:
    """One surrounding vehicle's observation sequence, frames FRAME_DT apart."""

    scenario_id: int
    vehicle_id: int
    frames: np.ndarray  # (F, 6): v, yaw_rate, x, y, vx, vy


class DatasetFormatError(ValueError):
    pass


def quintic_profile(tau: np.ndarray) -> np.ndarray:
    """Minimum-jerk 0 -> 1 transition on tau in [0, 1]; zero velocity and
    acceleration at both ends."""
    t = np.clip(tau, 0.0, 1.0)
    return 10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5


def _ou_normals(rng: np.random.Generator, n: int, stationary_std: float) -> np.ndarray:
    """An n-step OU series' normals: its initial value's (with a non-zero std), then one per step."""
    return rng.standard_normal(n + 1 if stationary_std > 0 else n)


def _ou_rows(normals: np.ndarray, stationary_std: float, theta: float) -> np.ndarray:
    """Mean-zero OU series at FRAME_DT spacing, one per row of normals as _ou_normals draws them."""
    rho = math.exp(-theta * FRAME_DT)
    innovation = stationary_std * math.sqrt(1.0 - rho * rho)
    steps = np.ascontiguousarray(normals.T)
    value, steps = (stationary_std * steps[0], steps[1:]) if stationary_std > 0 else (np.zeros(len(normals)), steps)
    out = np.empty(steps.shape)
    for k, z in enumerate(steps):
        out[k] = value
        value = rho * value + innovation * z
    return out.T


def _lane_center(lane, config: ScenarioConfig):
    # lanes centered around the road axis; an index of lane_count is the ramp
    return (lane - (config.lane_count - 1) / 2.0) * config.lane_width


def _after_zero(steps: np.ndarray) -> np.ndarray:
    """Each row's running sum of steps, after a leading 0.0."""
    return np.concatenate([np.zeros((steps.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1)


def _ego_rows(speed: np.ndarray, normals: np.ndarray, config: ScenarioConfig):
    """Each scenario's ego yaw rate and heading, (S, n), and world (x, y)
    positions, (S, n, 2), from its speed and its yaw rate's normals."""
    yaw_rate = _ou_rows(normals, config.ego_yaw_std, theta=1.0)
    heading = _after_zero(yaw_rate[:, :-1] * FRAME_DT)
    steps = np.empty(yaw_rate.shape + (2,))
    steps[:, 0] = (0.0, _lane_center(config.ego_lane, config))
    # math.cos/sin, not np.cos/sin, whose last bit may differ; the cumsum
    # adds the steps in frame order
    turns = heading[:, :-1]
    steps[:, 1:, 0] = np.reshape([math.cos(h) for h in turns.ravel().tolist()], turns.shape)
    steps[:, 1:, 1] = np.reshape([math.sin(h) for h in turns.ravel().tolist()], turns.shape)
    steps[:, 1:] *= (speed * FRAME_DT)[:, None, None]
    return yaw_rate, heading, np.cumsum(steps, axis=1)


def generate_dataset(config: ScenarioConfig):
    """All scenarios' records plus the split manifest.

    Scenario k uses its own generator seeded from (config.seed, k), so
    scenarios are independent and the whole dataset is reproducible. All
    draws come first, each scenario's in its stream's order (the ego's, then
    each vehicle's); then every ego and vehicle is computed at once, as rows.
    Returns (records, manifest) where manifest carries the config and the
    train/val/test scenario-id splits (split by scenario, never by window).
    """
    count = config.n_scenarios
    if count < 3:
        raise ValueError("need at least 3 scenarios to populate all three splits")
    n, per, lanes = config.frames_per_record, config.vehicles_per_scenario, config.lane_count
    total_time = n * FRAME_DT
    cut_in_lanes = [l for l in (config.ego_lane - 1, config.ego_lane + 1) if 0 <= l < lanes]
    sigma = np.asarray(config.noise_std)
    noisy = np.any(sigma > 0)
    # each vehicle's measurement noise is drawn into its frames, and the
    # clean values are added to it once they are computed
    frames = np.empty((count, per, n, 6))
    # rng.choice(4, p=probs) is one random() looked up in this cdf, built as
    # numpy builds it, and rng.choice(seq) is seq[rng.integers(len(seq))]
    cdf = config.maneuver_probs.astype(np.float64).cumsum()
    cdf /= cdf[-1]
    egos, vehicles = [], []
    for sid in range(count):
        rng = np.random.default_rng([config.seed, sid])
        egos.append((rng.uniform(config.speed_min, config.speed_max), _ou_normals(rng, n, config.ego_yaw_std)))
        for vid in range(per):
            name = MANEUVERS[cdf.searchsorted(rng.random(), side="right")]
            if name == "lane_keep":
                start = target = int(rng.integers(0, lanes))
            elif name == "lane_change":
                start = int(rng.integers(0, lanes))
                targets = [l for l in (start - 1, start + 1) if 0 <= l < lanes]
                target = targets[rng.integers(len(targets))]
            elif name == "cut_in":
                start, target = cut_in_lanes[rng.integers(len(cut_in_lanes))], config.ego_lane
            else:  # merge: ramp lane outside the outermost lane
                start, target = lanes, lanes - 1
            x0 = rng.uniform(*{"cut_in": (10.0, 40.0), "merge": (20.0, 80.0)}.get(name, (15.0, 130.0)))
            speed = rng.uniform(config.speed_min, config.speed_max)
            jitter = _ou_normals(rng, n, config.speed_jitter_std)
            duration = t_start = math.nan
            if start != target:
                duration = min(rng.uniform(config.lane_change_duration_min, config.lane_change_duration_max), total_time - 1.0)
                t_start = rng.uniform(0.2, max(0.21, total_time - duration - 0.2))
            vehicles.append((start, target, x0, speed, duration, t_start, jitter))
            if noisy:
                rng.standard_normal((n, 6), out=frames[sid, vid])

    ego_speed, ego_normals = map(np.array, zip(*egos))
    ego_yaw, heading, ego_pos = _ego_rows(ego_speed, ego_normals, config)
    start, target, x0, speed, duration, t_start, jitter = map(np.array, zip(*vehicles))
    jitter = _ou_rows(jitter, config.speed_jitter_std, theta=1.0)
    x = x0[:, None] + _after_zero((speed[:, None] + jitter[:, :-1]) * FRAME_DT)
    y0, y1 = _lane_center(start, config), _lane_center(target, config)
    y = np.repeat(y0[:, None], n, axis=1)
    change = start != target
    tau = (np.arange(n) * FRAME_DT - t_start[change, None]) / duration[change, None]
    y[change] = y0[change, None] + (y1 - y0)[change, None] * quintic_profile(tau)

    # into each ego's frame: rotate by its heading about its position
    dx, dy = x.reshape(count, per, n), y.reshape(count, per, n)
    dx -= ego_pos[:, None, :, 0]
    dy -= ego_pos[:, None, :, 1]
    cos_h, sin_h = np.cos(heading)[:, None], np.sin(heading)[:, None]
    rel_x, rel_y = cos_h * dx + sin_h * dy, -sin_h * dx + cos_h * dy
    clean = [ego_speed[:, None, None], ego_yaw[:, None], rel_x, rel_y, np.empty_like(rel_x), np.empty_like(rel_y)]
    for vel, rel in zip(clean[4:], (rel_x, rel_y)):
        vel[..., 1:] = np.diff(rel) / FRAME_DT
        vel[..., 0] = vel[..., 1]
    for k, values in enumerate(clean):
        frames[..., k] = values + sigma[k] * frames[..., k] if noisy else values
    records = [TrajectoryRecord(sid, vid, frames[sid, vid]) for sid in range(count) for vid in range(per)]

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


SPLITS = ("train", "val", "test")


def split_positions(scenario_ids, splits: dict, names=SPLITS) -> dict[str, list[int]]:
    """{name: the positions in scenario_ids that belong to split name, in
    order} for each of names; splits maps split names to scenario-id lists,
    as a manifest's "splits" does."""
    out = {}
    for name in names:
        members = set(splits[name])
        out[name] = [i for i, sid in enumerate(scenario_ids) if sid in members]
    return out


def write_dataset(records: list[TrajectoryRecord], path: str) -> dict:
    """Stream the records into path, atomically (temp file + rename).

    Returns the file's binding for write_manifest, taken from the lines as
    they stream out: their total length in bytes, their crc32, and an index
    with one [scenario_id, lines] run per stretch of consecutive lines of
    one scenario, in file order."""
    size, crc, index = 0, 0, []
    with write_atomic(path, prefix=".dataset-") as f:
        for rec in records:
            obj = {
                "scenario_id": rec.scenario_id,
                "vehicle_id": rec.vehicle_id,
                "frames": rec.frames.tolist(),
            }
            line = (json.dumps(obj) + "\n").encode("utf-8")
            f.write(line)
            size += len(line)
            crc = zlib.crc32(line, crc)
            if index and index[-1][0] == rec.scenario_id:
                index[-1][1] += 1
            else:
                index.append([rec.scenario_id, 1])
    return {"bytes": size, "crc32": crc, "index": index}


def _parse_record(raw: bytes, path: str, lineno: int) -> TrajectoryRecord | None:
    """The record on one dataset line, or None for a blank line."""
    try:
        line = raw.decode("utf-8")
        if not line.strip():
            return None
        obj = json.loads(line)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DatasetFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{path}:{lineno}: record must be a JSON object")
    for key in ("scenario_id", "vehicle_id", "frames"):
        if key not in obj:
            raise DatasetFormatError(f"{path}:{lineno}: missing field {key!r}")
    for key in ("scenario_id", "vehicle_id"):
        if not _is_int(obj[key]):
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
    return TrajectoryRecord(scenario_id=sid, vehicle_id=vid, frames=frames)


def _parse_lines(path: str, lines) -> list[TrajectoryRecord]:
    parsed = (_parse_record(raw, path, lineno) for lineno, raw in enumerate(lines, start=1))
    return [rec for rec in parsed if rec is not None]


def read_dataset(path: str, splits: tuple[str, ...] | None = None):
    """The records of the dataset at path, in file order.

    With splits, a tuple of split names, the manifest beside path selects
    the records, and the result is ({name: that split's records in file
    order}, records parsed). A manifest bound to the dataset (written with
    dataset=) must record the file's byte length and crc32, or the read
    fails naming both paths; then only the named splits' lines are parsed,
    found through the manifest's index, and every other line must begin
    with its index run's scenario id as write_dataset writes it. An unbound
    manifest (written without dataset=, or before bindings existed) selects
    from every record of the file, and nothing ties it to the file's
    contents."""
    with open(path, "rb") as f:
        if splits is None:
            return _parse_lines(path, f)
        manifest, binding = _load_manifest(path)
        if binding is None:
            records = _parse_lines(path, f)
            positions = split_positions([rec.scenario_id for rec in records], manifest["splits"], splits)
            return {name: [records[i] for i in pos] for name, pos in positions.items()}, len(records)
        index = binding["index"]
        positions = split_positions([sid for sid, _ in index], manifest["splits"], splits)
        kept = {k: [] for runs in positions.values() for k in runs}
        # starts[k]: the first line of run k; starts[-1]: one past the last
        starts = list(itertools.accumulate((count for _, count in index), initial=1))
        # every line goes through the length and crc32; the selected runs'
        # lines are kept, unparsed until the file has proved to be the bound
        # one, and every other line must open as write_dataset opens its
        # run's records (lines past the index match the empty prefix)
        prefixes = [f'{{"scenario_id": {sid}, '.encode() for sid, _ in index] + [b""]
        size, crc, n_lines, mislabelled = 0, 0, 0, None
        for n_lines, raw in enumerate(f, start=1):
            size += len(raw)
            crc = zlib.crc32(raw, crc)
            run = bisect.bisect_right(starts, n_lines) - 1
            if run in kept:
                kept[run].append((n_lines, raw))
            elif mislabelled is None and not raw.startswith(prefixes[run]):
                mislabelled = run
    if (size, crc) != (binding["bytes"], binding["crc32"]):
        raise DatasetFormatError(
            f"{path} does not match its manifest {manifest_path(path)}: the dataset has {size} bytes "
            f"with crc32 {crc:08x}, the manifest records {binding['bytes']} bytes with crc32 {binding['crc32']:08x}"
        )
    if n_lines != starts[-1] - 1:
        raise DatasetFormatError(
            f"{manifest_path(path)}: field 'dataset.index' covers {starts[-1] - 1} lines of {path}'s {n_lines}"
        )
    if mislabelled is not None:
        raise DatasetFormatError(f"{manifest_path(path)}: field 'dataset.index' run {mislabelled} does not match {path}")
    by_split = {}
    for name, runs in positions.items():
        by_split[name] = []
        for k in runs:
            records = [_parse_record(raw, path, lineno) for lineno, raw in kept[k]]
            if any(rec is None or rec.scenario_id != index[k][0] for rec in records):
                raise DatasetFormatError(f"{manifest_path(path)}: field 'dataset.index' run {k} does not match {path}")
            by_split[name] += records
    return by_split, sum(len(recs) for recs in by_split.values())


def manifest_path(dataset_path: str) -> str:
    return dataset_path + ".manifest.json"


def write_manifest(manifest: dict, dataset_path: str, dataset: dict | None = None) -> None:
    """Write the manifest beside dataset_path. dataset, the binding that
    write_dataset returned, is stored under the key "dataset" and binds the
    manifest to those bytes; without it the manifest is unbound."""
    if dataset is not None:
        manifest = {**manifest, "dataset": dataset}
    with write_atomic(manifest_path(dataset_path), prefix=".manifest-") as f:
        f.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_manifest(dataset_path: str) -> dict:
    """The manifest beside dataset_path; it must hold the three splits as
    lists of integer scenario ids. A binding, if present, is validated and
    left out of the result."""
    return _load_manifest(dataset_path)[0]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load_manifest(dataset_path: str) -> tuple[dict, dict | None]:
    """(manifest without its binding, binding or None), both validated."""
    path = manifest_path(dataset_path)
    if not os.path.exists(path):
        raise DatasetFormatError(f"missing manifest {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{path}: manifest must be a JSON object")
    if "splits" not in manifest:
        raise DatasetFormatError(f"{path}: missing field 'splits'")
    splits = manifest["splits"]
    if not isinstance(splits, dict):
        raise DatasetFormatError(f"{path}: field 'splits' must be an object, got {splits!r}")
    for name in SPLITS:
        if name not in splits:
            raise DatasetFormatError(f"{path}: missing field 'splits.{name}'")
        ids = splits[name]
        if not isinstance(ids, list) or not all(_is_int(i) for i in ids):
            raise DatasetFormatError(f"{path}: field 'splits.{name}' must be a list of integer scenario ids, got {ids!r}")
    binding = manifest.pop("dataset", None)
    if binding is None:
        return manifest, None
    if not isinstance(binding, dict):
        raise DatasetFormatError(f"{path}: field 'dataset' must be an object, got {binding!r}")
    for key in ("bytes", "crc32", "index"):
        if key not in binding:
            raise DatasetFormatError(f"{path}: missing field 'dataset.{key}'")
    if not _is_int(binding["bytes"]) or binding["bytes"] < 0:
        raise DatasetFormatError(f"{path}: field 'dataset.bytes' must be a non-negative integer, got {binding['bytes']!r}")
    if not _is_int(binding["crc32"]) or not 0 <= binding["crc32"] < 2**32:
        raise DatasetFormatError(f"{path}: field 'dataset.crc32' must be an integer in [0, 2**32), got {binding['crc32']!r}")
    index = binding["index"]
    if not isinstance(index, list) or not all(
        isinstance(run, list) and len(run) == 2 and all(_is_int(v) for v in run) and run[1] >= 1 for run in index
    ):
        raise DatasetFormatError(f"{path}: field 'dataset.index' must be a list of [scenario_id, lines] runs of at least one line")
    return manifest, binding
