"""Grid geometry: quantization, flat-class bijection, cell centers."""

import math

import pytest
from hypothesis import given, strategies as st

import numpy as np

from gridcast.ogm import (
    OUT_OF_MAP,
    GridCell,
    GridSpec,
    cell_center,
    flatten,
    position_classes,
    quantize,
    unflatten,
    unflatten_indices,
)

GRID = GridSpec()


class TestGridSpec:
    def test_default_geometry(self):
        assert GRID.num_classes == 757
        assert GRID.out_of_map_class == 757
        assert GRID.q_w * GRID.cell_len == GRID.x_max - GRID.x_min

    def test_lateral_span_inside_sensor_range(self):
        hi = GRID.lateral_origin + GRID.q_l * GRID.cell_wid
        assert GRID.y_min - 0.025 <= GRID.lateral_origin
        assert hi <= GRID.y_max + 0.025

    def test_covered_span_centered(self):
        hi = GRID.lateral_origin + GRID.q_l * GRID.cell_wid
        assert math.isclose(GRID.lateral_origin, -hi)

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(q_w=10)  # 10 * 5m != 180m

    def test_custom_grid(self):
        g = GridSpec.custom(4, 3)
        assert g.num_classes == 13
        assert g.x_max == 20.0
        assert math.isclose(g.y_max, 3 * 0.875 / 2)


class TestQuantize:
    def test_spec_example_interior(self):
        # (0 + 9.1875) / 0.875 = 10.5 -> l = 11
        assert quantize(2.0, 0.0, GRID) == GridCell(1, 11)

    def test_spec_example_beyond_range(self):
        assert quantize(185.0, 0.0, GRID) == OUT_OF_MAP

    def test_spec_example_lower_edge(self):
        assert quantize(0.0, -9.1875, GRID) == GridCell(1, 1)

    def test_x_max_is_out_of_map(self):
        assert quantize(180.0, 0.0, GRID) == OUT_OF_MAP
        assert quantize(179.999, 0.0, GRID).w == 36

    def test_lateral_margin_clamps_into_edge_cells(self):
        # [9.1875, 9.2] is inside sensor range but beyond the covered span
        assert quantize(0.0, 9.2, GRID) == GridCell(1, 21)
        assert quantize(0.0, 9.19, GRID) == GridCell(1, 21)
        assert quantize(0.0, -9.2, GRID) == GridCell(1, 1)

    def test_beyond_lateral_range(self):
        assert quantize(0.0, 9.2000001, GRID) == OUT_OF_MAP
        assert quantize(0.0, -9.3, GRID) == OUT_OF_MAP

    def test_negative_x(self):
        assert quantize(-0.001, 0.0, GRID) == OUT_OF_MAP

    @pytest.mark.parametrize("x,y", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 0.0)])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(ValueError):
            quantize(x, y, GRID)

    @given(
        x=st.floats(min_value=-50, max_value=250, allow_nan=False),
        y=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    def test_total_and_in_range(self, x, y):
        cell = quantize(x, y, GRID)
        if cell.in_map:
            assert 1 <= cell.w <= 36
            assert 1 <= cell.l <= 21
        else:
            assert cell == OUT_OF_MAP

    @given(
        x1=st.floats(min_value=0, max_value=179.9),
        dx=st.floats(min_value=0, max_value=50),
        y=st.floats(min_value=-9.2, max_value=9.2),
    )
    def test_monotone_in_x(self, x1, dx, y):
        a = quantize(x1, y, GRID)
        b = quantize(x1 + dx, y, GRID)
        if a.in_map and b.in_map:
            assert b.w >= a.w


def reference_class(x: float, y: float, spec: GridSpec) -> int:
    """The quantize-then-flatten rule written out scalar by scalar: the
    reference the array classifier is held to."""
    if x < spec.x_min or x >= spec.x_max or y < spec.y_min or y > spec.y_max:
        return spec.out_of_map_class
    w = min(max(int(math.floor((x - spec.x_min) / spec.cell_len)) + 1, 1), spec.q_w)
    l = min(max(int(math.floor((y - spec.lateral_origin) / spec.cell_wid)) + 1, 1), spec.q_l)
    return (w - 1) * spec.q_l + l


GRIDS = st.one_of(
    st.just(GRID),
    st.builds(
        GridSpec.custom,
        q_w=st.integers(1, 40),
        q_l=st.integers(1, 25),
        cell_len=st.sampled_from([0.3, 1.0, 2.5, 5.0, 7.3]),
        cell_wid=st.sampled_from([0.25, 0.5, 0.875, 1.1]),
        x_min=st.sampled_from([0.0, -10.0, 3.7]),
    ),
)


@st.composite
def grid_and_positions(draw):
    """A grid and positions that favour its edges: every cell edge, x_max,
    y_min/y_max, the lateral margins, their float neighbours, far values."""
    spec = draw(GRIDS)
    xs = [spec.x_min + k * spec.cell_len for k in range(spec.q_w + 1)] + [spec.x_max, 1e300, -1e300]
    ys = [spec.lateral_origin + k * spec.cell_wid for k in range(spec.q_l + 1)]
    ys += [spec.y_min, spec.y_max, (spec.y_max + ys[-1]) / 2, (spec.y_min + ys[0]) / 2, 1e300, -1e300]

    def nudged(values):
        # the value itself or its float neighbour on either side
        return st.tuples(st.sampled_from(values), st.sampled_from([-np.inf, None, np.inf])).map(
            lambda pair: pair[0] if pair[1] is None else np.nextafter(pair[0], pair[1])
        )

    x = st.one_of(nudged(xs), st.floats(spec.x_min - 5, spec.x_max + 5), st.floats(allow_nan=False, allow_infinity=False))
    y = st.one_of(nudged(ys), st.floats(spec.y_min - 1, spec.y_max + 1), st.floats(allow_nan=False, allow_infinity=False))
    points = draw(st.lists(st.tuples(x, y), min_size=1, max_size=30))
    return spec, [(float(a), float(b)) for a, b in points]


class TestPositionClasses:
    @given(grid_and_positions())
    def test_equals_scalar_rule_and_quantize(self, case):
        spec, points = case
        got = position_classes(np.array(points), spec)
        assert got.dtype == np.int64 and got.shape == (len(points),)
        for (x, y), q in zip(points, got.tolist()):
            assert q == reference_class(x, y, spec), (x, y)
            assert flatten(quantize(x, y, spec), spec) == q

    def test_keeps_leading_shape(self):
        xy = np.array([[[2.0, 0.0], [185.0, 0.0]], [[0.0, -9.1875], [179.999, 9.2]]])
        assert position_classes(xy, GRID).tolist() == [[11, 757], [1, 35 * 21 + 21]]

    def test_just_below_x_max_is_in_the_last_column(self):
        # (x - x_min) / cell_len rounds up to q_w here
        spec = GridSpec.custom(5, 3, cell_len=0.7)
        x = float(np.nextafter(spec.x_max, -np.inf))
        assert position_classes([[x, 0.0]], spec).tolist() == [reference_class(x, 0.0, spec)] == [4 * 3 + 2]

    @pytest.mark.parametrize("spec", [GRID, GridSpec.custom(4, 3, cell_len=0.3, cell_wid=0.25)])
    @pytest.mark.parametrize("x,y", [(1e300, 0.0), (-1e300, 1e300), (1.7976931348623157e308, -1.7976931348623157e308), (5e-324, 0.0)])
    def test_far_positions_raise_no_float_warning(self, spec, x, y):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = position_classes([[x, y]], spec)
        assert got.tolist() == [reference_class(x, y, spec)]

    def test_non_finite_names_the_first_bad_position(self):
        xy = np.array([[1.0, 0.0], [2.0, float("nan")], [float("inf"), 0.0]])
        with pytest.raises(ValueError, match=r"^quantize requires finite coordinates, got \(2\.0, nan\)$"):
            position_classes(xy, GRID)
        with pytest.raises(ValueError, match=r"got \(nan, 0\.0\)$"):
            quantize(float("nan"), 0.0, GRID)


class TestFlattenUnflatten:
    def test_spec_examples(self):
        assert flatten(GridCell(1, 1), GRID) == 1
        assert flatten(GridCell(1, 11), GRID) == 11
        assert flatten(OUT_OF_MAP, GRID) == 757

    def test_bijection_both_ways(self):
        for q in range(1, 758):
            assert flatten(unflatten(q, GRID), GRID) == q
        for w in range(1, 37):
            for l in range(1, 22):
                cell = GridCell(w, l)
                assert unflatten(flatten(cell, GRID), GRID) == cell
        assert unflatten(flatten(OUT_OF_MAP, GRID), GRID) == OUT_OF_MAP

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            unflatten(0, GRID)
        with pytest.raises(ValueError):
            unflatten(758, GRID)

    def test_cell_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            flatten(GridCell(37, 1), GRID)

    def test_indices_match_scalar_unflatten(self):
        q = np.stack([np.arange(1, 758), np.arange(757, 0, -1)])
        w, l = unflatten_indices(q, GRID)
        assert w.shape == l.shape == q.shape
        for qq, ww, ll in zip(q.ravel(), w.ravel(), l.ravel()):
            assert GridCell(int(ww), int(ll)) == unflatten(int(qq), GRID)

    def test_indices_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="758"):
            unflatten_indices([[1, 758]], GRID)
        with pytest.raises(ValueError, match="class id 0"):
            unflatten_indices(0, GRID)


class TestCellCenter:
    def test_spec_examples(self):
        assert cell_center(GridCell(1, 11), GRID) == (2.5, 0.0)
        assert cell_center(GridCell(36, 21), GRID) == (177.5, 8.75)

    def test_out_of_map_rejected(self):
        with pytest.raises(ValueError):
            cell_center(OUT_OF_MAP, GRID)

    def test_roundtrip_all_cells(self):
        for w in range(1, 37):
            for l in range(1, 22):
                cell = GridCell(w, l)
                x, y = cell_center(cell, GRID)
                assert quantize(x, y, GRID) == cell

    def test_roundtrip_custom_grid(self):
        g = GridSpec.custom(5, 4, cell_len=2.0, cell_wid=0.5)
        for q in range(1, g.num_classes):
            cell = unflatten(q, g)
            assert quantize(*cell_center(cell, g), g) == cell


def test_grid_cell_invariants():
    with pytest.raises(ValueError):
        GridCell(0, 5)
    with pytest.raises(ValueError):
        GridCell(-1, -1)
    assert not OUT_OF_MAP.in_map
    assert GridCell(3, 4).in_map
