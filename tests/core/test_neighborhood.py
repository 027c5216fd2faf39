"""Tests for the toroidal neighborhood patterns (Figure 1)."""

import numpy as np
import pytest

from repro.core.neighborhood import (
    C9Neighborhood,
    C13Neighborhood,
    L5Neighborhood,
    L9Neighborhood,
    PanmicticNeighborhood,
    get_neighborhood,
    list_neighborhoods,
)

GRID = (5, 5)  # the paper's population mesh


class TestRegistry:
    def test_all_patterns_registered(self):
        assert set(list_neighborhoods()) == {"panmictic", "l5", "l9", "c9", "c13"}

    def test_lookup_case_insensitive(self):
        assert isinstance(get_neighborhood("C9"), C9Neighborhood)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_neighborhood("l7")


class TestSizes:
    """The pattern sizes the paper quotes in Figure 1 (on a 5×5 torus)."""

    @pytest.mark.parametrize(
        "name,expected",
        [("l5", 5), ("l9", 9), ("c9", 9), ("c13", 13), ("panmictic", 25)],
    )
    def test_distinct_cell_counts(self, name, expected):
        pattern = get_neighborhood(name)
        assert pattern.size(*GRID) == expected

    def test_small_grid_wraps_reduce_size(self):
        # On a 3x3 torus the distance-2 offsets of L9 wrap onto distance-1 cells.
        assert L9Neighborhood().size(3, 3) < 9


class TestMembership:
    @pytest.mark.parametrize("name", ["l5", "l9", "c9", "c13", "panmictic"])
    def test_centre_always_included(self, name):
        pattern = get_neighborhood(name)
        for position in range(GRID[0] * GRID[1]):
            assert position in pattern.neighbors(position, *GRID)

    def test_l5_is_von_neumann_cross(self):
        neighbors = set(L5Neighborhood().neighbors(12, *GRID).tolist())  # centre cell
        assert neighbors == {12, 7, 17, 11, 13}

    def test_c9_is_moore_block(self):
        neighbors = set(C9Neighborhood().neighbors(12, *GRID).tolist())
        assert neighbors == {6, 7, 8, 11, 12, 13, 16, 17, 18}

    def test_c13_adds_axial_distance_two(self):
        c9 = set(C9Neighborhood().neighbors(12, *GRID).tolist())
        c13 = set(C13Neighborhood().neighbors(12, *GRID).tolist())
        assert c13 - c9 == {2, 22, 10, 14}

    def test_l9_extends_l5(self):
        l5 = set(L5Neighborhood().neighbors(12, *GRID).tolist())
        l9 = set(L9Neighborhood().neighbors(12, *GRID).tolist())
        assert l5.issubset(l9)

    def test_panmictic_covers_everything(self):
        neighbors = PanmicticNeighborhood().neighbors(0, *GRID)
        assert np.array_equal(np.sort(neighbors), np.arange(25))


class TestToroidalWrap:
    def test_corner_cell_wraps(self):
        neighbors = set(L5Neighborhood().neighbors(0, *GRID).tolist())
        # up from row 0 wraps to row 4; left from column 0 wraps to column 4
        assert neighbors == {0, 20, 5, 4, 1}

    def test_every_cell_has_same_neighborhood_size(self):
        pattern = C13Neighborhood()
        sizes = {
            np.unique(pattern.neighbors(p, *GRID)).size for p in range(GRID[0] * GRID[1])
        }
        assert sizes == {13}

    def test_symmetry(self):
        """If b is a neighbor of a then a is a neighbor of b (symmetric offsets)."""
        pattern = C9Neighborhood()
        for a in range(25):
            for b in pattern.neighbors(a, *GRID):
                assert a in pattern.neighbors(int(b), *GRID)

    def test_out_of_range_position_rejected(self):
        with pytest.raises(IndexError):
            L5Neighborhood().neighbors(25, *GRID)
        with pytest.raises(IndexError):
            PanmicticNeighborhood().neighbors(-1, *GRID)

    def test_rectangular_grid(self):
        neighbors = L5Neighborhood().neighbors(0, 2, 7)
        assert neighbors.shape == (5,)
        assert neighbors.max() < 14


class TestTable:
    @pytest.mark.parametrize("name", sorted(list_neighborhoods()))
    @pytest.mark.parametrize("shape", [(5, 5), (1, 1), (2, 7), (3, 4), (1, 6)])
    def test_rows_are_the_cells_neighbors(self, name, shape):
        pattern = get_neighborhood(name)
        table = pattern.table(*shape)
        expected = np.stack(
            [pattern.neighbors(p, *shape) for p in range(shape[0] * shape[1])]
        )
        assert table.dtype == np.int64
        np.testing.assert_array_equal(table, expected)
