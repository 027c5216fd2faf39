"""An unstructured (panmictic) memetic algorithm — the structure ablation.

The complementary ablation to :mod:`repro.baselines.cellular_ga`: this
baseline keeps the memetic component (the same local-search methods as the
cMA) but drops the cellular structure, selecting parents from the whole
population.  Comparing cMA / cellular GA / panmictic MA / plain GA isolates
the individual contributions of the two design choices the paper builds on.

Like the cMA, the population is resident in one
:class:`~repro.engine.batch.BatchEvaluator` (modelled as a ``1 × pop`` grid
with offspring scratch rows): each iteration's offspring are bred from the
population state at the start of the iteration with one vectorized
tournament/crossover draw, mutated as one batch, improved with whole-batch
local search, and then compete for the worst slot one at a time
(steady-state replacement).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import PopulationBasedScheduler
from repro.core.crossover import OnePointCrossover
from repro.core.individual import Individual
from repro.core.local_search import get_local_search
from repro.core.mutation import get_mutation
from repro.core.population import ResidentGrid
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike, bounded_draws
from repro.utils.validation import check_integer, check_probability

__all__ = ["PanmicticMAConfig", "PanmicticMA"]


@dataclass(frozen=True)
class PanmicticMAConfig:
    """Parameters of the unstructured memetic algorithm."""

    population_size: int = 25
    offspring_per_iteration: int = 25
    mutation_probability: float = 0.3
    tournament_size: int = 3
    local_search: str = "lmcts"
    local_search_iterations: int = 5
    mutation: str = "rebalance"
    seeding_heuristic: str | None = "ljfr_sjfr"
    fitness_weight: float = 0.75

    def __post_init__(self) -> None:
        check_integer("population_size", self.population_size, minimum=2)
        check_integer("offspring_per_iteration", self.offspring_per_iteration, minimum=1)
        check_probability("mutation_probability", self.mutation_probability)
        check_integer("tournament_size", self.tournament_size, minimum=1)
        check_integer("local_search_iterations", self.local_search_iterations, minimum=0)
        check_probability("fitness_weight", self.fitness_weight)

    @classmethod
    def fast_defaults(cls) -> "PanmicticMAConfig":
        """A reduced configuration for unit tests and laptop benchmarks."""
        return cls(population_size=9, offspring_per_iteration=6, local_search_iterations=2)


class PanmicticMA(PopulationBasedScheduler):
    """Steady-state memetic algorithm over an unstructured resident population."""

    algorithm_name = "panmictic_ma"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: PanmicticMAConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else PanmicticMAConfig()
        super().__init__(
            instance,
            population_size=self.config.population_size,
            termination=termination,
            fitness_weight=self.config.fitness_weight,
            seeding_heuristic=self.config.seeding_heuristic,
            rng=rng,
            engine=engine,
        )
        self._local_search = get_local_search(
            self.config.local_search, iterations=self.config.local_search_iterations
        )
        self._mutation = get_mutation(self.config.mutation)
        self._crossover = OnePointCrossover()
        self.resident: ResidentGrid | None = None

    # ------------------------------------------------------------------ #
    # Resident-population hooks
    # ------------------------------------------------------------------ #
    def _setup_population(self) -> None:
        """Seed the resident population: cells + offspring scratch in one batch."""
        batch = self.engine.seeded_batch(
            self.population_size, self.seeding_heuristic, rng=self.rng
        ).expanded(self.config.offspring_per_iteration)
        self.resident = ResidentGrid(
            1,
            self.population_size,
            batch,
            self.evaluator,
            scratch_rows=self.config.offspring_per_iteration,
        )
        self.evaluator.add_evaluations(self.population_size)

    def _population_best(self) -> Individual:
        return self.resident.best()

    # ------------------------------------------------------------------ #
    # One steady-state iteration, batched
    # ------------------------------------------------------------------ #
    def _iteration(self) -> bool:
        cfg = self.config
        grid = self.resident
        nb_offspring = cfg.offspring_per_iteration
        best_before = grid.fitness_at(grid.best_position())

        # Two tournaments per offspring over the whole population, one draw.
        fitness = grid.fitness_values()
        entrants = self.rng.integers(
            0, self.population_size, size=(nb_offspring, 2, cfg.tournament_size)
        )
        winner_index = fitness[entrants].argmin(axis=2)
        winners = np.take_along_axis(entrants, winner_index[..., None], axis=2)[..., 0]

        # One-point crossover of every pair, one cut draw per offspring.
        bounds = self._crossover.draw_bounds(2, self.instance.nb_jobs)
        draws = bounded_draws(self.rng, bounds, nb_offspring)
        children = self._crossover.recombine_from_draws(grid.batch.assignments[winners], draws)
        rows = grid.stage(children)

        mutate = self.rng.random(nb_offspring) < cfg.mutation_probability
        self._mutation.mutate_batch(grid.batch, rows[mutate], self.rng)

        self.engine.improve_batch(grid.batch, rows, self._local_search, self.rng)
        fitnesses = grid.evaluate_rows(rows)

        # Steady-state replacement: each offspring challenges the current worst.
        improved = False
        for row, offspring_fitness in zip(rows, fitnesses):
            worst = grid.worst_position()
            if offspring_fitness < grid.fitness_at(worst):
                grid.adopt(worst, int(row))
                if offspring_fitness < best_before:
                    improved = True
        return improved
