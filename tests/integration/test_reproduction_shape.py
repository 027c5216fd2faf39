"""Small-scale checks of the paper's qualitative claims.

The benchmark harness asserts the paper's conclusions at realistic budgets;
these integration tests assert the same *shapes* at unit-test scale so that a
regression in any component that would flip a conclusion (e.g. the local
search no longer helping, the cMA losing to its own seed) is caught by
``pytest tests/`` without running the benchmarks.
"""

import math

import numpy as np
import pytest

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.core.termination import TerminationCriteria
from repro.experiments.runner import ExperimentSettings
from repro.experiments.tuning import TuningSettings, local_search_sweep
from repro.heuristics import build_schedule
from repro.model.benchmark import braun_suite
from repro.model.generator import ETCGeneratorConfig
from repro.utils.stats import summarize


@pytest.fixture(scope="module")
def suite():
    return braun_suite(
        nb_jobs=64,
        nb_machines=8,
        names=("u_c_hihi.0", "u_i_hihi.0", "u_s_lolo.0"),
    )


def run_cma(instance, iterations=20, seed=1, **overrides):
    config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(iterations)).evolve(
        population_height=4, population_width=4, nb_recombinations=12, nb_mutations=6,
        local_search_iterations=3, **overrides
    )
    return CellularMemeticAlgorithm(instance, config, rng=seed).run()


class TestTable2And4Shape:
    def test_cma_improves_makespan_over_seed_on_every_class(self, suite):
        """Table 2's qualitative core: the cMA delivers strong makespans."""
        for name, instance in suite.items():
            seed_schedule = build_schedule("ljfr_sjfr", instance)
            result = run_cma(instance)
            assert result.makespan < seed_schedule.makespan, name

    def test_cma_improves_flowtime_over_ljfr_sjfr(self, suite):
        """Table 4's direction: flowtime improves on every instance class."""
        for name, instance in suite.items():
            seed_schedule = build_schedule("ljfr_sjfr", instance)
            result = run_cma(instance)
            assert result.flowtime < seed_schedule.flowtime, name

    def test_improvement_largest_on_inconsistent_instances(self, suite):
        """Table 4 reports much larger flowtime gains on u_i_* than u_c_*."""
        gains = {}
        for name in ("u_c_hihi.0", "u_i_hihi.0"):
            instance = suite[name]
            seed_schedule = build_schedule("ljfr_sjfr", instance)
            result = run_cma(instance, iterations=25)
            gains[name] = (seed_schedule.flowtime - result.flowtime) / seed_schedule.flowtime
        assert gains["u_i_hihi.0"] > gains["u_c_hihi.0"]


class TestFigure2Shape:
    def test_lmcts_is_the_best_local_search(self):
        tuning = TuningSettings(
            settings=ExperimentSettings(
                nb_jobs=48,
                nb_machines=8,
                runs=2,
                max_seconds=math.inf,
                max_iterations=10,
                seed=5,
            ),
            generator=ETCGeneratorConfig(nb_jobs=48, nb_machines=8, consistency="inconsistent"),
            grid_points=4,
        )
        result = local_search_sweep(tuning)
        finals = {name: stats.mean for name, stats in result.final_makespan.items()}
        assert finals["LMCTS"] <= finals["LM"] * 1.05
        assert finals["LMCTS"] <= finals["SLM"] * 1.10


class TestRobustnessShape:
    def test_repeated_runs_have_small_spread(self, suite):
        """Section 5.1: the spread of the best makespan across runs is small."""
        instance = suite["u_c_hihi.0"]
        makespans = [run_cma(instance, iterations=15, seed=seed).makespan for seed in range(4)]
        stats = summarize(makespans)
        assert stats.coefficient_of_variation < 0.10

    def test_all_runs_beat_the_seed(self, suite):
        instance = suite["u_c_hihi.0"]
        seed_makespan = build_schedule("ljfr_sjfr", instance).makespan
        for seed in range(4):
            assert run_cma(instance, iterations=15, seed=seed).makespan < seed_makespan


class TestMemeticAndStructureShape:
    def test_local_search_contributes(self, suite):
        """Switching LMCTS off must not help (ablation direction)."""
        instance = suite["u_s_lolo.0"]
        with_ls = run_cma(instance, iterations=15, seed=3)
        without_ls = run_cma(instance, iterations=15, seed=3, local_search="none")
        assert with_ls.best_fitness <= without_ls.best_fitness

    def test_neighborhood_structure_is_not_harmful(self, suite):
        """C9 must stay competitive with panmixia at equal budgets."""
        instance = suite["u_c_hihi.0"]
        structured = run_cma(instance, iterations=15, seed=4, neighborhood="c9")
        panmictic = run_cma(instance, iterations=15, seed=4, neighborhood="panmictic")
        assert structured.best_fitness <= panmictic.best_fitness * 1.10

    def test_population_diversity_decreases_monotonically_under_takeover(self, suite):
        """Selection gradually removes diversity; it starts positive and only shrinks."""
        instance = suite["u_c_hihi.0"]
        config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(6))
        observed: list[float] = []
        algorithm = CellularMemeticAlgorithm(
            instance,
            config,
            rng=6,
            observer=lambda algo, state: observed.append(algo.population_diversity()),
        )
        algorithm.run()
        assert observed[0] > 0.0  # the seeded-and-perturbed population is diverse
        # Takeover only removes diversity (elitist replacement, no new randomness
        # beyond the rebalance mutation), so the trace is non-increasing overall.
        assert observed[-1] <= observed[0] + 1e-9


class TestEvaluationBudgetFairness:
    def test_equal_evaluation_budgets_are_comparable(self, suite):
        """The runner's evaluation counting lines up across algorithm families."""
        from repro.baselines import SteadyStateGAConfig, StruggleGA

        instance = suite["u_i_hihi.0"]
        budget = TerminationCriteria.by_evaluations(1200)
        cma = CellularMemeticAlgorithm(
            instance, CMAConfig.paper_defaults(budget), rng=7
        ).run()
        struggle = StruggleGA(
            instance, SteadyStateGAConfig.fast_defaults(), termination=budget, rng=7
        ).run()
        # Both stopped near the same budget (within one iteration's overshoot).
        assert cma.evaluations >= 1200
        assert struggle.evaluations >= 1200
        assert cma.evaluations < 1200 * 2.5
        assert struggle.evaluations < 1200 * 2.5
        # And the cMA makes at least as good use of it.
        assert cma.best_fitness <= struggle.best_fitness * 1.05
