"""Tests for the deterministic in-process island driver."""

import math

import numpy as np
import pytest

from repro.cli import ALGORITHMS
from repro.core.config import CMAConfig, IslandConfig
from repro.core.termination import TerminationCriteria
from repro.experiments.runner import (
    ExperimentSettings,
    cma_spec,
    heuristic_spec,
    islands_spec,
    repeat_run,
)
from repro.islands import IslandModel
from repro.model.benchmark import generate_braun_like_instance


@pytest.fixture(scope="module")
def instance():
    return generate_braun_like_instance("u_c_hihi.0", rng=1, nb_jobs=24, nb_machines=4)


SPEC = cma_spec(CMAConfig.fast_defaults())
TERMINATION = TerminationCriteria(max_seconds=math.inf, max_evaluations=700)

#: Every scheduler the CLI can run, plus a constructive heuristic.
EVERY_SPEC = {
    **{name: build() for name, build in ALGORITHMS.items()},
    "min_min": heuristic_spec("min_min"),
}


class TestConfigValidation:
    def test_defaults_validate(self):
        IslandConfig()

    def test_worker_count_must_match_islands(self):
        with pytest.raises(ValueError):
            IslandConfig(nb_islands=4, workers=2)

    def test_zero_workers_allowed(self):
        assert IslandConfig(nb_islands=4, workers=0).workers == 0

    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            IslandConfig(topology="hypercube")

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError):
            IslandConfig(migration_interval=0.0)

    def test_none_interval_disables_migration(self):
        assert not IslandConfig(migration_interval=None).migration_enabled


@pytest.mark.parametrize("name", sorted(EVERY_SPEC))
class TestSteppableLifecycle:
    def test_stepped_run_equals_run(self, instance, name):
        spec = EVERY_SPEC[name]
        budget = TerminationCriteria.by_iterations(8)
        whole = spec.build(instance, budget, rng=3).run()
        stepped_algorithm = spec.build(instance, budget, rng=3)
        stepped_algorithm.start()
        while stepped_algorithm.should_continue():
            stepped_algorithm.step()
        stepped = stepped_algorithm.finish()
        assert stepped.best_fitness == whole.best_fitness
        assert stepped.evaluations == whole.evaluations
        assert np.array_equal(
            np.asarray(stepped.best_schedule.assignment),
            np.asarray(whole.best_schedule.assignment),
        )

    def test_step_before_start_rejected(self, instance, name):
        algorithm = EVERY_SPEC[name].build(
            instance, TerminationCriteria.by_iterations(8), rng=1
        )
        with pytest.raises(RuntimeError):
            algorithm.step()


class TestIndependenceProperty:
    """The determinism contract pinned by the acceptance criteria."""

    @pytest.mark.parametrize("name", sorted(EVERY_SPEC))
    def test_no_migration_matches_repeat_run_bit_for_bit(self, instance, name):
        # Simulated annealing and tabu search charge one evaluation per
        # iteration, so the iteration budget bounds their runs.
        spec = EVERY_SPEC[name]
        runs = 3
        config = IslandConfig(nb_islands=runs, migration_interval=None, workers=0)
        budget = TerminationCriteria(
            max_seconds=math.inf, max_evaluations=300, max_iterations=8
        )
        model = IslandModel(instance, spec, config, budget, rng=11)
        model.run()
        settings = ExperimentSettings(
            nb_jobs=24,
            nb_machines=4,
            runs=runs,
            max_seconds=math.inf,
            max_evaluations=300,
            max_iterations=8,
            seed=11,
        )
        reference = repeat_run(spec, instance, settings, rng=11)
        assert len(model.island_results) == runs
        for island_result, reference_result in zip(model.island_results, reference):
            assert island_result.best_fitness == reference_result.best_fitness
            assert island_result.evaluations == reference_result.evaluations
            assert island_result.iterations == reference_result.iterations
            assert np.array_equal(
                np.asarray(island_result.best_schedule.assignment),
                np.asarray(reference_result.best_schedule.assignment),
            )

    def test_migration_changes_trajectories(self, instance):
        isolated = IslandModel(
            instance,
            SPEC,
            IslandConfig(nb_islands=3, migration_interval=None, workers=0),
            TERMINATION,
            rng=11,
        )
        isolated.run()
        migrating = IslandModel(
            instance,
            SPEC,
            IslandConfig(nb_islands=3, migration_interval=100.0, workers=0),
            TERMINATION,
            rng=11,
        )
        migrating.run()
        totals = [r.metadata["island"]["migrations_in"] for r in migrating.island_results]
        assert sum(totals) > 0


class TestDeterministicDriver:
    def test_same_seed_reproduces_with_migration(self, instance):
        config = IslandConfig(
            nb_islands=4, topology="torus", migration_interval=150.0, workers=0
        )
        first = IslandModel(instance, SPEC, config, TERMINATION, rng=5)
        result_a = first.run()
        second = IslandModel(instance, SPEC, config, TERMINATION, rng=5)
        result_b = second.run()
        assert result_a.best_fitness == result_b.best_fitness
        for left, right in zip(first.island_results, second.island_results):
            assert left.best_fitness == right.best_fitness
            assert left.evaluations == right.evaluations

    def test_combined_result_is_best_island(self, instance):
        config = IslandConfig(nb_islands=3, migration_interval=200.0, workers=0)
        model = IslandModel(instance, SPEC, config, TERMINATION, rng=2)
        combined = model.run()
        fitnesses = [result.best_fitness for result in model.island_results]
        assert combined.best_fitness == min(fitnesses)
        assert combined.metadata["best_island"] == int(np.argmin(fitnesses))
        assert combined.evaluations == sum(r.evaluations for r in model.island_results)
        assert len(combined.metadata["per_island"]) == 3

    def test_migration_counters_recorded(self, instance):
        config = IslandConfig(
            nb_islands=2, topology="complete", migration_interval=100.0, workers=0
        )
        model = IslandModel(instance, SPEC, config, TERMINATION, rng=4)
        model.run()
        for result in model.island_results:
            stats = result.metadata["island"]
            assert stats["migrations_out"] >= 1
            assert stats["migrations_in"] >= 1
            assert stats["immigrants_adopted"] >= 0

    def test_scheduler_without_resident_grid_cannot_migrate(self, instance):
        spec = heuristic_spec("min_min")
        config = IslandConfig(nb_islands=2, migration_interval=50.0, workers=0)
        with pytest.raises(TypeError):
            IslandModel(instance, spec, config, TERMINATION, rng=1).run()
        # ...but runs fine as independent repetitions.
        quiet = IslandConfig(nb_islands=2, migration_interval=None, workers=0)
        result = IslandModel(instance, spec, quiet, TERMINATION, rng=1).run()
        assert result.best_fitness > 0


class TestIslandsSpec:
    def test_rides_the_experiment_harness(self, instance):
        spec = islands_spec(
            SPEC, IslandConfig(nb_islands=2, migration_interval=300.0, workers=0)
        )
        settings = ExperimentSettings(
            nb_jobs=24,
            nb_machines=4,
            runs=2,
            max_seconds=math.inf,
            max_evaluations=400,
            seed=7,
        )
        results = repeat_run(spec, instance, settings)
        assert len(results) == 2
        assert all(r.algorithm == "islands[2xcma]" for r in results)

    def test_default_name_encodes_shape(self):
        spec = islands_spec(SPEC, IslandConfig(nb_islands=8, workers=0))
        assert spec.name == "islands_cma_x8"
