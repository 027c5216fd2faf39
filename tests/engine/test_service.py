"""Tests for the shared EvaluationEngine service layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import individuals_from_batch
from repro.core.termination import SearchState
from repro.engine import BatchEvaluator, EvaluationEngine, perturbed_copies
from repro.heuristics import build_schedule
from repro.model.instance import SchedulingInstance


@pytest.fixture
def instance() -> SchedulingInstance:
    rng = np.random.default_rng(42)
    return SchedulingInstance(
        etc=rng.uniform(1.0, 200.0, size=(20, 5)),
        ready_times=rng.uniform(0.0, 10.0, size=5),
        name="service-test",
    )


class TestCounterAndLifecycle:
    def test_scalar_and_batch_share_one_counter(self, instance):
        engine = EvaluationEngine(instance)
        batch = BatchEvaluator.random(instance, 4, rng=1)
        individuals_from_batch(batch, engine.evaluator)
        engine.evaluate(batch.schedule(0))
        assert engine.evaluations == 5

    def test_begin_run_clears_history_in_place(self, instance):
        engine = EvaluationEngine(instance)
        history = engine.history
        state = SearchState()
        engine.record(state, fitness=1.0, makespan=1.0, flowtime=1.0)
        assert len(history) == 1
        engine.begin_run()
        assert engine.history is history
        assert len(history) == 0

    def test_set_weight_validates(self, instance):
        engine = EvaluationEngine(instance)
        with pytest.raises(ValueError):
            engine.set_weight(1.5)
        engine.set_weight(0.5)
        assert engine.evaluator.weight == 0.5


class TestPopulationFactories:
    def test_seeded_batch_row_zero_is_heuristic(self, instance):
        engine = EvaluationEngine(instance)
        batch = engine.seeded_batch(6, "min_min", rng=3)
        expected = build_schedule("min_min", instance)
        assert np.array_equal(batch.assignments[0], expected.assignment)

    def test_seeded_batch_with_perturbation_stays_close_to_seed(self, instance):
        engine = EvaluationEngine(instance)
        batch = engine.seeded_batch(8, "ljfr_sjfr", rng=3, perturbation_rate=0.25)
        seed = batch.assignments[0]
        limit = max(1, round(0.25 * instance.nb_jobs))
        for row in range(1, len(batch)):
            distance = int(np.count_nonzero(batch.assignments[row] != seed))
            assert 0 < distance <= limit

    def test_seeded_batch_without_heuristic_is_random_but_valid(self, instance):
        engine = EvaluationEngine(instance)
        batch = engine.seeded_batch(5, None, rng=9)
        assert batch.assignments.min() >= 0
        assert batch.assignments.max() < instance.nb_machines
        batch.validate()

    def test_perturbed_copies_change_bounded_fraction(self, instance):
        base = np.zeros(instance.nb_jobs, dtype=np.int64)
        rows = perturbed_copies(base, 10, instance.nb_machines, 0.5, rng=5)
        assert rows.shape == (10, instance.nb_jobs)
        for row in rows:
            assert np.count_nonzero(row != base) <= round(0.5 * instance.nb_jobs)

    def test_individuals_from_batch_matches_batch_objectives(self, instance):
        engine = EvaluationEngine(instance)
        batch = BatchEvaluator.random(instance, 7, rng=2)
        individuals = individuals_from_batch(batch, engine.evaluator)
        assert engine.evaluations == 7
        for row, individual in enumerate(individuals):
            assert individual.is_evaluated
            assert individual.makespan == pytest.approx(batch.makespans()[row])
            assert individual.flowtime == pytest.approx(batch.flowtimes()[row])
            individual.schedule.validate()


class TestResults:
    def test_build_result_is_self_consistent(self, instance):
        engine = EvaluationEngine(instance)
        engine.begin_run()
        state = SearchState()
        batch = BatchEvaluator.random(instance, 3, rng=8)
        individuals_from_batch(batch, engine.evaluator)
        state.evaluations = engine.evaluations
        best = batch.schedule(int(batch.fitnesses().argmin()))
        engine.record(
            state,
            fitness=float(batch.fitnesses().min()),
            makespan=best.makespan,
            flowtime=best.flowtime,
        )
        result = engine.build_result(
            algorithm="test",
            best_schedule=best,
            best_fitness=float(batch.fitnesses().min()),
            state=state,
            metadata={"k": 1},
        )
        assert result.algorithm == "test"
        assert result.instance_name == instance.name
        assert result.evaluations == 3
        assert result.makespan == pytest.approx(best.makespan)
        assert result.mean_flowtime == pytest.approx(
            best.flowtime / instance.nb_machines
        )
        assert result.metadata == {"k": 1}
        # The result carries a snapshot: a later begin_run (which clears the
        # live history in place) must not erase an already-returned result.
        assert result.history.records == engine.history.records
        engine.begin_run()
        assert len(engine.history) == 0
        assert len(result.history) == 1
