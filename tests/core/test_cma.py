"""Tests for the cellular memetic algorithm itself."""

import numpy as np
import pytest

from repro.core.cma import CellularMemeticAlgorithm, breed
from repro.core.config import CMAConfig
from repro.core.crossover import get_crossover, list_crossovers
from repro.core.selection import NTournamentSelection, get_selection, list_selections
from repro.core.termination import TerminationCriteria
from repro.heuristics import build_schedule


def fast_config(iterations=10, **overrides):
    """A small configuration that still exercises every component."""
    return CMAConfig.fast_defaults(TerminationCriteria.by_iterations(iterations)).evolve(
        **overrides
    )


class TestRunContract:
    def test_result_fields_are_consistent(self, tiny_instance):
        result = CellularMemeticAlgorithm(tiny_instance, fast_config(), rng=1).run()
        assert result.algorithm == "cma"
        assert result.instance_name == tiny_instance.name
        assert result.makespan == pytest.approx(result.best_schedule.makespan)
        assert result.flowtime == pytest.approx(result.best_schedule.flowtime)
        assert result.mean_flowtime == pytest.approx(
            result.flowtime / tiny_instance.nb_machines
        )
        assert result.evaluations > 0
        assert result.iterations == 10
        assert result.elapsed_seconds >= 0
        result.best_schedule.validate()

    def test_best_schedule_is_valid_assignment(self, tiny_instance):
        result = CellularMemeticAlgorithm(tiny_instance, fast_config(), rng=2).run()
        assignment = result.best_schedule.assignment
        assert assignment.shape == (tiny_instance.nb_jobs,)
        assert assignment.min() >= 0
        assert assignment.max() < tiny_instance.nb_machines

    def test_summary_keys(self, tiny_instance):
        result = CellularMemeticAlgorithm(tiny_instance, fast_config(5), rng=3).run()
        summary = result.summary()
        assert {"algorithm", "instance", "fitness", "makespan", "flowtime"}.issubset(summary)

    def test_respects_makespan_lower_bound(self, tiny_instance):
        result = CellularMemeticAlgorithm(tiny_instance, fast_config(), rng=4).run()
        assert result.makespan >= tiny_instance.makespan_lower_bound() - 1e-9


class TestDeterminismAndBudgets:
    def test_same_seed_same_result(self, tiny_instance):
        a = CellularMemeticAlgorithm(tiny_instance, fast_config(), rng=7).run()
        b = CellularMemeticAlgorithm(tiny_instance, fast_config(), rng=7).run()
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_schedule.assignment, b.best_schedule.assignment)

    def test_different_seeds_generally_differ(self, small_instance):
        a = CellularMemeticAlgorithm(small_instance, fast_config(), rng=1).run()
        b = CellularMemeticAlgorithm(small_instance, fast_config(), rng=2).run()
        assert not np.array_equal(a.best_schedule.assignment, b.best_schedule.assignment)

    def test_iteration_budget_respected(self, tiny_instance):
        result = CellularMemeticAlgorithm(tiny_instance, fast_config(3), rng=1).run()
        assert result.iterations == 3

    def test_evaluation_budget_respected(self, tiny_instance):
        config = CMAConfig.fast_defaults(TerminationCriteria.by_evaluations(150))
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        # The budget is checked once per iteration, so the overshoot is at most
        # one iteration's worth of evaluations.
        per_iteration = (config.nb_recombinations + config.nb_mutations) * (
            1 + config.local_search_iterations
        )
        assert result.evaluations < 150 + per_iteration + config.population_size

    def test_stagnation_budget_stops_early(self, tiny_instance):
        config = CMAConfig.fast_defaults(
            TerminationCriteria(max_iterations=500, max_stagnant_iterations=3)
        )
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.iterations < 500


class TestSearchQuality:
    def test_improves_over_the_seed_heuristic(self, small_instance):
        seed = build_schedule("ljfr_sjfr", small_instance)
        result = CellularMemeticAlgorithm(small_instance, fast_config(30), rng=5).run()
        assert result.makespan < seed.makespan
        assert result.flowtime < seed.flowtime

    def test_monotone_best_fitness_history(self, small_instance):
        result = CellularMemeticAlgorithm(small_instance, fast_config(20), rng=6).run()
        fitness_curve = result.history.fitnesses()
        assert np.all(np.diff(fitness_curve) <= 1e-9)

    def test_history_records_every_iteration(self, tiny_instance):
        result = CellularMemeticAlgorithm(tiny_instance, fast_config(8), rng=1).run()
        # One record for the initial population plus one per iteration.
        assert len(result.history) == 9

    def test_best_fitness_matches_weighted_objectives(self, tiny_instance):
        config = fast_config(10)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=2).run()
        expected = (
            config.fitness_weight * result.makespan
            + (1 - config.fitness_weight) * result.mean_flowtime
        )
        assert result.best_fitness == pytest.approx(expected)


class TestConfigurationVariants:
    @pytest.mark.parametrize("neighborhood", ["panmictic", "l5", "l9", "c9", "c13"])
    def test_every_neighborhood_runs(self, tiny_instance, neighborhood):
        config = fast_config(4, neighborhood=neighborhood)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.makespan > 0

    @pytest.mark.parametrize("local_search", ["none", "lm", "slm", "lmcts", "lmctm", "vns"])
    def test_every_local_search_runs(self, tiny_instance, local_search):
        config = fast_config(4, local_search=local_search)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.makespan > 0

    @pytest.mark.parametrize("order", ["fls", "frs", "nrs"])
    def test_every_sweep_order_runs(self, tiny_instance, order):
        config = fast_config(4, recombination_order=order, mutation_order=order)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.makespan > 0

    @pytest.mark.parametrize("selection", ["n_tournament", "random", "best", "linear_rank"])
    def test_every_selection_runs(self, tiny_instance, selection):
        config = fast_config(4, selection=selection)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.makespan > 0

    def test_mutation_only_configuration(self, tiny_instance):
        config = fast_config(6, nb_recombinations=0, nb_mutations=8)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.makespan > 0

    def test_recombination_only_configuration(self, tiny_instance):
        config = fast_config(6, nb_recombinations=8, nb_mutations=0)
        result = CellularMemeticAlgorithm(tiny_instance, config, rng=1).run()
        assert result.makespan > 0


class TestObserverAndIntrospection:
    def test_observer_called_once_per_iteration(self, tiny_instance):
        calls = []
        algorithm = CellularMemeticAlgorithm(
            tiny_instance,
            fast_config(7),
            rng=1,
            observer=lambda algo, state: calls.append(state.iterations),
        )
        algorithm.run()
        assert calls == list(range(1, 8))

    def test_population_diversity_before_and_after(self, tiny_instance):
        algorithm = CellularMemeticAlgorithm(tiny_instance, fast_config(5), rng=1)
        assert algorithm.population_diversity() == 0.0  # not started yet
        algorithm.run()
        assert 0.0 <= algorithm.population_diversity() <= 1.0

    def test_memetic_beats_plain_cellular_ga_on_small_budget(self, small_instance):
        """Ablation sanity check: local search helps for equal iteration budgets."""
        memetic = CellularMemeticAlgorithm(
            small_instance, fast_config(10, local_search="lmcts"), rng=3
        ).run()
        plain = CellularMemeticAlgorithm(
            small_instance, fast_config(10, local_search="none"), rng=3
        ).run()
        assert memetic.best_fitness <= plain.best_fitness


def breed_child_by_child(selection, crossover, fitness, assignments, neighbors, nb_parents, gen):
    """One ``select_indices`` and one ``recombine`` call per child, in order."""
    children = []
    for cells in neighbors:
        picks = selection.select_indices(fitness[cells], nb_parents, gen)
        children.append(crossover.recombine(assignments[cells[picks]], gen))
    return np.stack(children)


class TestPhaseBreed:
    @pytest.mark.parametrize("crossover_name", sorted(list_crossovers()))
    @pytest.mark.parametrize("selection_name", sorted(list_selections()))
    def test_matches_one_selection_and_recombination_per_child(
        self, selection_name, crossover_name
    ):
        selections = [get_selection(selection_name)]
        if selection_name == "n_tournament":
            # Sizes 5 and 10 exceed some pools below: entrants with replacement.
            selections += [NTournamentSelection(size) for size in (1, 2, 5, 10)]
        crossover = get_crossover(crossover_name)
        for seed in range(8):
            for nb_jobs in (1, 2, 3, 17):
                setup = np.random.default_rng([seed, nb_jobs])
                cells = int(setup.integers(1, 30))
                pool = int(setup.integers(1, 14))
                nb_parents = int(setup.integers(1, 5))
                nb_children = int(setup.integers(1, 26))
                # Few distinct fitness values, so tournaments and ranks tie.
                fitness = setup.integers(0, 4, size=cells).astype(float)
                assignments = setup.integers(0, 5, size=(cells + nb_children, nb_jobs))
                neighbors = setup.integers(0, cells, size=(nb_children, pool))
                for selection in selections:
                    reference = np.random.default_rng(seed)
                    gen = np.random.default_rng(seed)
                    expected = breed_child_by_child(
                        selection, crossover, fitness, assignments, neighbors, nb_parents,
                        reference,
                    )
                    children = breed(
                        selection, crossover, fitness, assignments, neighbors, nb_parents, gen
                    )
                    np.testing.assert_array_equal(children, expected)
                    assert gen.bit_generator.state == reference.bit_generator.state
