"""The Struggle GA baseline (Xhafa, BIOMA 2006).

The third comparison algorithm of Tables 3 and 5.  The distinguishing
feature of the Struggle GA is its replacement operator: a new offspring does
not replace the worst individual of the population but the individual *most
similar* to it (here: smallest Hamming distance between assignment vectors),
and only when the offspring is better.  This "struggle" replacement maintains
diversity and was reported by Xhafa to give robust results on the Braun
benchmark at the cost of slower convergence — exactly the behaviour the
paper's Tables 3/5 show relative to the cMA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import PopulationBasedScheduler
from repro.core.individual import Individual
from repro.core.termination import SearchState, TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike
from repro.utils.validation import check_integer, check_probability

__all__ = ["StruggleGAConfig", "StruggleGA"]


@dataclass(frozen=True)
class StruggleGAConfig:
    """Parameters of the Struggle GA baseline."""

    population_size: int = 60
    offspring_per_iteration: int = 10
    mutation_probability: float = 0.5
    tournament_size: int = 3
    seeding_heuristic: str | None = "ljfr_sjfr"
    fitness_weight: float = 0.75

    def __post_init__(self) -> None:
        check_integer("population_size", self.population_size, minimum=2)
        check_integer("offspring_per_iteration", self.offspring_per_iteration, minimum=1)
        check_probability("mutation_probability", self.mutation_probability)
        check_integer("tournament_size", self.tournament_size, minimum=1)
        check_probability("fitness_weight", self.fitness_weight)

    @classmethod
    def fast_defaults(cls) -> "StruggleGAConfig":
        """A reduced configuration for unit tests and laptop benchmarks."""
        return cls(population_size=20, offspring_per_iteration=5)


class StruggleGA(PopulationBasedScheduler):
    """Steady-state GA with similarity-based (struggle) replacement."""

    algorithm_name = "struggle_ga"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: StruggleGAConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else StruggleGAConfig()
        super().__init__(
            instance,
            population_size=self.config.population_size,
            termination=termination,
            fitness_weight=self.config.fitness_weight,
            seeding_heuristic=self.config.seeding_heuristic,
            rng=rng,
            engine=engine,
        )

    def _most_similar_index(self, child: Individual) -> int:
        """Index of the population member closest to *child* in Hamming distance.

        The scan is vectorized over a ``(population, jobs)`` matrix; for the
        population sizes used here this is a negligible cost per offspring.
        """
        child_genome = child.schedule.assignment
        genomes = np.stack([ind.schedule.assignment for ind in self.population])
        distances = (genomes != child_genome).sum(axis=1)
        return int(distances.argmin())

    def _iteration(self, state: SearchState) -> bool:
        cfg = self.config
        improved = False
        best_before = min(self.population, key=lambda ind: ind.fitness).fitness
        for _ in range(cfg.offspring_per_iteration):
            parent_a = self._tournament(self.population, cfg.tournament_size)
            parent_b = self._tournament(self.population, cfg.tournament_size)
            child_assignment = self.crossover.recombine(
                (parent_a.schedule.assignment, parent_b.schedule.assignment), self.rng
            )
            child = Individual(Schedule(self.instance, child_assignment))
            if self.rng.random() < cfg.mutation_probability:
                self.mutation.mutate(child.schedule, self.rng)
            child.evaluate(self.evaluator)

            target = self._most_similar_index(child)
            if child.fitness < self.population[target].fitness:
                self.population[target] = child
                if child.fitness < best_before:
                    improved = True
        return improved
