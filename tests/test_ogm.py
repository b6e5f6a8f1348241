"""Grid geometry: quantization, flat-class bijection, cell centers."""

import math

import pytest
from hypothesis import given, strategies as st

import numpy as np

from gridcast.ogm import OUT_OF_MAP, GridCell, GridSpec, cell_center, flatten, quantize, unflatten, unflatten_indices

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
