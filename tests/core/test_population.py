"""Tests for the resident cellular grid and its initializer."""

import numpy as np
import pytest

from repro.core.individual import Individual
from repro.core.population import PopulationInitializer, ResidentGrid
from repro.engine import BatchEvaluator
from repro.heuristics import build_schedule


def make_grid(instance, evaluator, height=3, width=3, seed=0):
    batch = BatchEvaluator.random(instance, height * width, rng=seed)
    return ResidentGrid(height, width, batch, evaluator)


def build(instance, height, width, evaluator, rng, **initializer):
    """A seeded grid with one offspring scratch row."""
    return PopulationInitializer(**initializer).build_resident(
        instance, height, width, evaluator, scratch_rows=1, rng=rng
    )


def cell_rows(grid):
    return grid.batch.assignments[grid.population_rows]


class TestResidentGrid:
    def test_size_and_indexing(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert grid.size == len(grid) == 9
        assert isinstance(grid[0], Individual)

    def test_wrong_row_count_rejected(self, tiny_instance, evaluator):
        with pytest.raises(ValueError):
            ResidentGrid(2, 2, BatchEvaluator.random(tiny_instance, 3, rng=0), evaluator)

    def test_out_of_range_position_rejected(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        with pytest.raises(IndexError):
            grid[9]

    def test_adopt_installs_rows_into_cells(self, tiny_instance, evaluator):
        batch = BatchEvaluator.random(tiny_instance, 9 + 3, rng=4)
        grid = ResidentGrid(3, 3, batch, evaluator, scratch_rows=3)
        offspring = grid.evaluate_rows([9, 10, 11]).copy()
        untouched = grid.fitness_values()[[1, 2, 3]]
        grid.adopt([4, 0], [11, 9])  # arrays of positions and rows
        grid.adopt(8, 10)  # one position and row
        np.testing.assert_array_equal(cell_rows(grid)[[4, 0, 8]], batch.assignments[[11, 9, 10]])
        np.testing.assert_array_equal(grid.fitness_values()[[4, 0, 8]], offspring[[2, 0, 1]])
        np.testing.assert_array_equal(grid.fitness_values()[[1, 2, 3]], untouched)
        batch.validate()

    @pytest.mark.parametrize("positions, rows", [([9], [9]), ([2, -1], [9, 10]), (12, 9)])
    def test_adopt_rejects_positions_outside_the_grid(
        self, tiny_instance, evaluator, positions, rows
    ):
        batch = BatchEvaluator.random(tiny_instance, 9 + 2, rng=4)
        grid = ResidentGrid(3, 3, batch, evaluator, scratch_rows=2)
        before = batch.assignments.copy()
        with pytest.raises(IndexError, match="outside grid"):
            grid.adopt(positions, rows)
        np.testing.assert_array_equal(batch.assignments, before)

    def test_coordinate_conversions(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator, height=3, width=4)
        assert grid.position_of(1, 2) == 6
        assert grid.coordinates_of(6) == (1, 2)
        assert grid.position_of(4, 5) == grid.position_of(1, 1)  # toroidal wrap

    def test_best_and_worst(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        fitnesses = grid.fitness_values()
        assert grid.best().fitness == fitnesses.min()
        assert grid.worst().fitness == fitnesses.max()
        assert grid[grid.best_position()].fitness == fitnesses.min()
        assert grid.mean_fitness() == pytest.approx(fitnesses.mean())


class TestDiversityMetrics:
    def test_identical_population_has_zero_diversity(self, tiny_instance, evaluator):
        batch = BatchEvaluator.random(tiny_instance, 1, rng=1)
        copies = BatchEvaluator(tiny_instance, np.tile(batch.assignments[0], (4, 1)))
        grid = ResidentGrid(2, 2, copies, evaluator)
        assert grid.genotypic_diversity() == pytest.approx(0.0)
        assert grid.entropy() == pytest.approx(0.0)

    def test_random_population_has_positive_diversity(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert grid.genotypic_diversity() > 0.3
        assert grid.entropy() > 0.0

    def test_diversity_bounded_by_one(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert grid.genotypic_diversity() <= 1.0

    def test_single_cell_grid(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator, height=1, width=1)
        assert grid.genotypic_diversity() == 0.0


class TestPopulationInitializer:
    def test_grid_dimensions(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 4, 3, evaluator, rng=1)
        assert grid.height == 4 and grid.width == 3
        assert grid.size == 12 and grid.scratch_rows == 1

    def test_every_cell_evaluated_and_charged(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 3, 3, evaluator, rng=1)
        assert all(ind.is_evaluated for ind in grid)
        assert evaluator.evaluations == 9

    def test_first_individual_is_the_seed_heuristic(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 3, 3, evaluator, rng=1)
        expected = build_schedule("ljfr_sjfr", tiny_instance)
        assert np.array_equal(cell_rows(grid)[0], expected.assignment)

    def test_min_min_seeding(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 3, 3, evaluator, rng=1, seeding_heuristic="min_min")
        expected = build_schedule("min_min", tiny_instance)
        assert np.array_equal(cell_rows(grid)[0], expected.assignment)

    def test_rest_are_perturbations_of_the_seed(self, small_instance, evaluator):
        grid = build(small_instance, 3, 3, evaluator, rng=2, perturbation_rate=0.3)
        rows = cell_rows(grid)
        for row in rows[1:]:
            distance = np.count_nonzero(row != rows[0])
            assert 0 < distance <= int(0.3 * small_instance.nb_jobs) + 1

    def test_perturbation_rate_validated(self):
        with pytest.raises(ValueError):
            PopulationInitializer(perturbation_rate=1.5)

    def test_population_is_diverse(self, small_instance, evaluator):
        grid = build(small_instance, 5, 5, evaluator, rng=4)
        assert grid.genotypic_diversity() > 0.1

    def test_deterministic_for_seed(self, tiny_instance, evaluator):
        a = build(tiny_instance, 3, 3, evaluator, rng=5)
        b = build(tiny_instance, 3, 3, evaluator, rng=5)
        assert np.array_equal(cell_rows(a), cell_rows(b))
