"""Occupancy grid geometry: relative (x, y) coordinates <-> grid cells <-> flat class ids.

The sensed region ahead of the ego vehicle is discretized into q_w x q_l
rectangular cells plus one out-of-map state, so a position becomes one of
q_w * q_l + 1 classes (757 for the default 36 x 21 grid).

Conventions:
  * cells are half-open intervals [low, high) in both axes; the topmost /
    rightmost edge is closed so every in-range point maps to a cell,
  * the lateral covered span (q_l * cell_wid) is centered on the ego lane;
    positions inside [y_min, y_max] but in the thin residual margins are
    clamped into the nearest edge cell,
  * x == x_max is out of map (detection-range semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "GridCell",
    "OUT_OF_MAP",
    "quantize",
    "flatten",
    "unflatten",
    "unflatten_indices",
    "cell_center",
]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the occupancy grid. Defaults: 36 x 5.0 m longitudinal cells
    over [0, 180) m, 21 x 0.875 m lateral cells centered on y = 0, sensor
    validity range y in [-9.2, 9.2] m."""

    q_w: int = 36
    q_l: int = 21
    cell_len: float = 5.0
    cell_wid: float = 0.875
    x_min: float = 0.0
    x_max: float = 180.0
    y_min: float = -9.2
    y_max: float = 9.2
    lateral_origin: float = -9.1875

    def __post_init__(self) -> None:
        if self.q_w < 1 or self.q_l < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.cell_len <= 0 or self.cell_wid <= 0:
            raise ValueError("cell sizes must be positive")
        if not math.isclose(self.q_w * self.cell_len, self.x_max - self.x_min):
            raise ValueError("q_w * cell_len must equal the longitudinal range")
        covered_lo = self.lateral_origin
        covered_hi = self.lateral_origin + self.q_l * self.cell_wid
        # covered lateral span must sit inside the sensor range, up to a
        # sub-cell margin that quantize clamps away
        if covered_lo < self.y_min - 0.025 or covered_hi > self.y_max + 0.025:
            raise ValueError("lateral covered span exceeds [y_min, y_max] margins")

    @property
    def num_classes(self) -> int:
        """Total class count: q_w * q_l in-map cells plus out-of-map."""
        return self.q_w * self.q_l + 1

    @property
    def out_of_map_class(self) -> int:
        return self.num_classes

    @classmethod
    def custom(
        cls,
        q_w: int,
        q_l: int,
        cell_len: float = 5.0,
        cell_wid: float = 0.875,
        x_min: float = 0.0,
    ) -> "GridSpec":
        """A consistent grid of arbitrary size, laterally centered on y = 0
        with no residual margin. Used for scaled-down models and tests."""
        half = q_l * cell_wid / 2.0
        return cls(
            q_w=q_w,
            q_l=q_l,
            cell_len=cell_len,
            cell_wid=cell_wid,
            x_min=x_min,
            x_max=x_min + q_w * cell_len,
            y_min=-half,
            y_max=half,
            lateral_origin=-half,
        )


@dataclass(frozen=True)
class GridCell:
    """One grid element as a (longitudinal, lateral) index pair, 1-based.
    w == l == 0 is the out-of-map state (use the OUT_OF_MAP constant)."""

    w: int
    l: int

    @property
    def in_map(self) -> bool:
        return self.w > 0

    def __post_init__(self) -> None:
        if (self.w == 0) != (self.l == 0):
            raise ValueError("out-of-map cell must have both indices 0")
        if self.w < 0 or self.l < 0:
            raise ValueError("grid indices must be non-negative")


OUT_OF_MAP = GridCell(0, 0)


def quantize(x: float, y: float, spec: GridSpec = GridSpec()) -> GridCell:
    """Map a relative position in meters to its grid cell.

    Out of map when x is outside [x_min, x_max) or y outside [y_min, y_max];
    y values inside the sensor range but in the residual lateral margins are
    clamped into the nearest edge cell.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"quantize requires finite coordinates, got ({x}, {y})")
    if x < spec.x_min or x >= spec.x_max:
        return OUT_OF_MAP
    if y < spec.y_min or y > spec.y_max:
        return OUT_OF_MAP
    w = int(math.floor((x - spec.x_min) / spec.cell_len)) + 1
    l = int(math.floor((y - spec.lateral_origin) / spec.cell_wid)) + 1
    # clamp covers the margins and closes the topmost cell's upper edge
    w = min(max(w, 1), spec.q_w)
    l = min(max(l, 1), spec.q_l)
    return GridCell(w, l)


def flatten(cell: GridCell, spec: GridSpec = GridSpec()) -> int:
    """Flat class id in 1..num_classes; out-of-map maps to the last class."""
    if not cell.in_map:
        return spec.out_of_map_class
    if not (1 <= cell.w <= spec.q_w and 1 <= cell.l <= spec.q_l):
        raise ValueError(f"cell {cell} outside {spec.q_w}x{spec.q_l} grid")
    return (cell.w - 1) * spec.q_l + cell.l


def unflatten(q: int, spec: GridSpec = GridSpec()) -> GridCell:
    """Inverse of flatten."""
    if not (1 <= q <= spec.num_classes):
        raise ValueError(f"class id {q} outside 1..{spec.num_classes}")
    if q == spec.out_of_map_class:
        return OUT_OF_MAP
    return GridCell((q - 1) // spec.q_l + 1, (q - 1) % spec.q_l + 1)


def unflatten_indices(q, spec: GridSpec = GridSpec()) -> tuple[np.ndarray, np.ndarray]:
    """unflatten over an array of flat class ids: the (w, l) index arrays,
    both 0 where the class is out of map."""
    q = np.asarray(q, dtype=np.int64)
    bad = q[(q < 1) | (q > spec.num_classes)]
    if bad.size:
        raise ValueError(f"class id {bad[0]} outside 1..{spec.num_classes}")
    in_map = q != spec.out_of_map_class
    w = np.where(in_map, (q - 1) // spec.q_l + 1, 0)
    l = np.where(in_map, (q - 1) % spec.q_l + 1, 0)
    return w, l


def cell_center(cell: GridCell, spec: GridSpec = GridSpec()) -> tuple[float, float]:
    """Geometric center of an in-map cell, in meters."""
    if not cell.in_map:
        raise ValueError("out-of-map cell has no center")
    if not (1 <= cell.w <= spec.q_w and 1 <= cell.l <= spec.q_l):
        raise ValueError(f"cell {cell} outside {spec.q_w}x{spec.q_l} grid")
    x = spec.x_min + (cell.w - 0.5) * spec.cell_len
    y = spec.lateral_origin + (cell.l - 0.5) * spec.cell_wid
    return x, y
