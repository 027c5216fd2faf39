"""End-to-end integration tests across subpackages.

These tests tie the whole pipeline together the way the examples and the
benchmark harness use it: generate benchmark instances, run the cMA and the
baselines, compare them, and drive the dynamic grid simulation with the cMA
as its batch scheduler.  Budgets stay tiny; what is being checked is the
plumbing and the *direction* of the comparisons, not absolute quality.
"""

import math

import numpy as np
import pytest

from repro import (
    CellularMemeticAlgorithm,
    CMAConfig,
    TerminationCriteria,
    braun_suite,
    build_schedule,
)
from repro.baselines import GAConfig, GenerationalGA, SteadyStateGAConfig, StruggleGA
from repro.core.config import TraceConfig
from repro.experiments import (
    ExperimentSettings,
    cma_spec,
    compare_algorithms,
    heuristic_spec,
)
from repro.grid import (
    GridSimulator,
    HeuristicBatchPolicy,
    SimulationConfig,
    WarmCMAPolicy,
)
from repro.model.io import load_instance, save_instance
from repro.traces import generate_trace


@pytest.fixture(scope="module")
def suite():
    return braun_suite(nb_jobs=48, nb_machines=8, names=("u_c_hihi.0", "u_i_hihi.0"))


class TestStaticPipeline:
    def test_cma_beats_every_constructive_heuristic(self, suite):
        instance = suite["u_c_hihi.0"]
        config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(25))
        result = CellularMemeticAlgorithm(instance, config, rng=1).run()
        for heuristic in ("ljfr_sjfr", "mct", "olb", "met"):
            assert result.makespan <= build_schedule(heuristic, instance).makespan

    def test_cma_competitive_with_gas_under_equal_evaluation_budget(self, suite):
        instance = suite["u_c_hihi.0"]
        budget = TerminationCriteria.by_evaluations(3000)
        cma = CellularMemeticAlgorithm(
            instance, CMAConfig.paper_defaults(budget), rng=2
        ).run()
        ga = GenerationalGA(
            instance, GAConfig.fast_defaults(), termination=budget, rng=2
        ).run()
        struggle = StruggleGA(
            instance, SteadyStateGAConfig.fast_defaults(), termination=budget, rng=2
        ).run()
        assert cma.best_fitness <= ga.best_fitness
        assert cma.best_fitness <= struggle.best_fitness

    def test_comparison_harness_agrees_with_direct_runs(self, suite):
        settings = ExperimentSettings(
            nb_jobs=48, nb_machines=8, runs=1, max_seconds=math.inf, max_iterations=8, seed=3
        )
        cells = compare_algorithms(
            [cma_spec(), heuristic_spec("ljfr_sjfr")], dict(suite), settings
        )
        for name in suite:
            assert cells[(name, "cma")].best_makespan <= cells[
                (name, "ljfr_sjfr")
            ].best_makespan * 1.01

    def test_instance_round_trip_preserves_results(self, suite, tmp_path):
        instance = suite["u_i_hihi.0"]
        reloaded = load_instance(save_instance(instance, tmp_path / "i.json"))
        schedule_a = build_schedule("min_min", instance)
        schedule_b = build_schedule("min_min", reloaded)
        assert schedule_a.makespan == pytest.approx(schedule_b.makespan)


def lo_trace(duration, rate, nb_machines, seed):
    """A calm stream of lo-heterogeneity jobs on a lo-heterogeneity park."""
    return generate_trace(
        TraceConfig(
            duration=duration,
            rate=rate,
            nb_machines=nb_machines,
            job_heterogeneity="lo",
            machine_heterogeneity="lo",
        ),
        seed=seed,
    )


class TestDynamicPipeline:
    def test_cma_policy_dynamic_simulation(self):
        trace = lo_trace(duration=40.0, rate=1.0, nb_machines=4, seed=4)
        cma_metrics = GridSimulator.from_trace(
            trace,
            WarmCMAPolicy(warm=False, max_seconds=0.05, max_iterations=8),
            SimulationConfig(activation_interval=10.0),
            rng=4,
        ).run()
        olb_metrics = GridSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("olb"),
            SimulationConfig(activation_interval=10.0),
            rng=4,
        ).run()
        assert cma_metrics.completed_jobs == trace.nb_jobs
        assert olb_metrics.completed_jobs == trace.nb_jobs
        # The metaheuristic batch scheduler should not lose to blind load
        # balancing on the batch makespan metric.
        assert cma_metrics.makespan <= olb_metrics.makespan * 1.05

    def test_activation_records_expose_scheduler_cost(self):
        metrics = GridSimulator.from_trace(
            lo_trace(duration=30.0, rate=0.5, nb_machines=3, seed=5),
            WarmCMAPolicy(warm=False, max_seconds=0.02, max_iterations=3),
            SimulationConfig(activation_interval=10.0),
            rng=5,
        ).run()
        assert metrics.nb_activations == len(metrics.activations)
        assert all(a.scheduler_wall_seconds >= 0 for a in metrics.activations)


class TestReproducibilityAcrossTheStack:
    def test_full_pipeline_is_seed_deterministic(self, suite):
        instance = suite["u_c_hihi.0"]
        config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(6))
        a = CellularMemeticAlgorithm(instance, config, rng=9).run()
        b = CellularMemeticAlgorithm(instance, config, rng=9).run()
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_schedule.assignment, b.best_schedule.assignment)
        assert a.evaluations == b.evaluations
