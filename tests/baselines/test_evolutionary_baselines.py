"""Tests shared by all evolutionary baseline schedulers."""

import numpy as np
import pytest

from repro.baselines import (
    CellularGA,
    CellularGAConfig,
    GAConfig,
    GenerationalGA,
    PanmicticMA,
    PanmicticMAConfig,
    SteadyStateGA,
    SteadyStateGAConfig,
    StruggleGA,
)
from repro.core.termination import TerminationCriteria
from repro.heuristics import build_schedule
from repro.model.schedule import Schedule


def budget(iterations=10):
    return TerminationCriteria.by_iterations(iterations)


def make_all(instance, iterations=10, rng=1):
    """Instantiate every baseline with small configurations."""
    return {
        "braun_ga": GenerationalGA(
            instance, GAConfig.fast_defaults(), termination=budget(iterations), rng=rng
        ),
        "carretero_xhafa_ga": SteadyStateGA(
            instance,
            SteadyStateGAConfig.fast_defaults(),
            termination=budget(iterations),
            rng=rng,
        ),
        "struggle_ga": StruggleGA(
            instance,
            SteadyStateGAConfig.fast_defaults(),
            termination=budget(iterations),
            rng=rng,
        ),
        "cellular_ga": CellularGA(
            instance,
            CellularGAConfig(population_height=3, population_width=3, nb_recombinations=6, nb_mutations=3),
            termination=budget(iterations),
            rng=rng,
        ),
        "panmictic_ma": PanmicticMA(
            instance,
            PanmicticMAConfig.fast_defaults(),
            termination=budget(iterations),
            rng=rng,
        ),
    }


BASELINE_NAMES = ["braun_ga", "carretero_xhafa_ga", "struggle_ga", "cellular_ga", "panmictic_ma"]


@pytest.mark.parametrize("name", BASELINE_NAMES)
class TestBaselineContract:
    def test_produces_valid_result(self, name, tiny_instance):
        scheduler = make_all(tiny_instance)[name]
        result = scheduler.run()
        assert result.algorithm == name
        assert result.instance_name == tiny_instance.name
        assert result.makespan == pytest.approx(result.best_schedule.makespan)
        result.best_schedule.validate()

    def test_deterministic_given_seed(self, name, tiny_instance):
        a = make_all(tiny_instance, rng=5)[name].run()
        b = make_all(tiny_instance, rng=5)[name].run()
        assert a.best_fitness == pytest.approx(b.best_fitness)
        assert np.array_equal(a.best_schedule.assignment, b.best_schedule.assignment)

    def test_improves_over_random_schedules(self, name, small_instance):
        result = make_all(small_instance, iterations=15, rng=2)[name].run()
        random_fitness = np.mean(
            [Schedule.random(small_instance, rng=i).makespan for i in range(5)]
        )
        assert result.makespan < random_fitness

    def test_history_is_monotone(self, name, tiny_instance):
        result = make_all(tiny_instance, iterations=12, rng=3)[name].run()
        assert np.all(np.diff(result.history.fitnesses()) <= 1e-9)

    def test_respects_iteration_budget(self, name, tiny_instance):
        result = make_all(tiny_instance, iterations=4, rng=1)[name].run()
        assert result.iterations <= 4


class TestGenerationalGA:
    def test_population_size_respected(self, tiny_instance):
        ga = GenerationalGA(
            tiny_instance, GAConfig(population_size=12), termination=budget(3), rng=1
        )
        ga.run()
        assert len(ga.population) == 12

    def test_elitism_keeps_best(self, tiny_instance):
        ga = GenerationalGA(
            tiny_instance,
            GAConfig(population_size=10, elitism=2),
            termination=budget(8),
            rng=2,
        )
        result = ga.run()
        best_in_population = min(ind.fitness for ind in ga.population)
        assert best_in_population == pytest.approx(result.best_fitness)

    def test_min_min_seed_present_at_start(self, tiny_instance):
        ga = GenerationalGA(
            tiny_instance, GAConfig(population_size=8), termination=budget(1), rng=1
        )
        population = ga._initialize_population()
        seed = build_schedule("min_min", tiny_instance)
        assert any(
            np.array_equal(ind.schedule.assignment, seed.assignment) for ind in population
        )

    def test_elitism_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=5, elitism=5)

    def test_config_defaults(self):
        assert GAConfig.braun_defaults().population_size == 200
        assert GAConfig.fast_defaults().population_size < 200


class TestSteadyStateGA:
    def test_replaces_worst_individual(self, tiny_instance):
        ga = SteadyStateGA(
            tiny_instance,
            SteadyStateGAConfig(population_size=6, offspring_per_iteration=30),
            termination=budget(5),
            rng=3,
        )
        ga.run()
        fitnesses = [ind.fitness for ind in ga.population]
        # After many replace-worst steps the population should be reasonably
        # tight around its best member.
        assert max(fitnesses) < 5 * min(fitnesses)

    def test_population_size_constant(self, tiny_instance):
        ga = SteadyStateGA(
            tiny_instance,
            SteadyStateGAConfig(population_size=9),
            termination=budget(4),
            rng=1,
        )
        ga.run()
        assert len(ga.population) == 9


class TestStruggleGA:
    def test_most_similar_index_prefers_identical_clone(self, tiny_instance):
        ga = StruggleGA(
            tiny_instance,
            SteadyStateGAConfig(population_size=5),
            termination=budget(1),
            rng=1,
        )
        ga.population = ga._initialize_population()
        clone = ga.population[3].copy()
        assert ga._replacement_target(clone) == 3

    def test_struggle_preserves_more_diversity_than_replace_worst(self, small_instance):
        """The defining behaviour of the Struggle GA."""

        def genotypic_diversity(population):
            genomes = np.stack([ind.schedule.assignment for ind in population])
            total, pairs = 0.0, 0
            for i in range(len(population) - 1):
                total += float((genomes[i + 1 :] != genomes[i]).mean(axis=1).sum())
                pairs += len(population) - 1 - i
            return total / pairs

        struggle = StruggleGA(
            small_instance,
            SteadyStateGAConfig(population_size=16, offspring_per_iteration=8),
            termination=budget(25),
            rng=4,
        )
        plain = SteadyStateGA(
            small_instance,
            SteadyStateGAConfig(population_size=16, offspring_per_iteration=8),
            termination=budget(25),
            rng=4,
        )
        struggle.run()
        plain.run()
        assert genotypic_diversity(struggle.population) >= genotypic_diversity(plain.population)


class TestAblationBaselines:
    def test_cellular_ga_reports_its_own_name(self, tiny_instance):
        result = make_all(tiny_instance)["cellular_ga"].run()
        assert result.algorithm == "cellular_ga"

    def test_panmictic_ma_uses_local_search(self, small_instance):
        """With the same tiny budget, the memetic variant should not lose to
        the plain steady-state GA it is built on."""
        ma = PanmicticMA(
            small_instance,
            PanmicticMAConfig(population_size=10, offspring_per_iteration=5, local_search_iterations=3),
            termination=budget(6),
            rng=5,
        ).run()
        ga = SteadyStateGA(
            small_instance,
            SteadyStateGAConfig(population_size=10, offspring_per_iteration=5),
            termination=budget(6),
            rng=5,
        ).run()
        assert ma.best_fitness <= ga.best_fitness

    def test_invalid_population_size(self, tiny_instance):
        with pytest.raises(ValueError):
            PanmicticMAConfig(population_size=1)
