"""A steady-state GA in the style of Carretero & Xhafa (2006).

The second comparison column of Table 3.  Carretero & Xhafa explored GA
operators for grid scheduling with a *steady-state* reproduction scheme: at
every step a few parents are selected by tournament, recombined and mutated,
and the offspring replaces the worst individual of the population if it is
better.  The published study also used the LJFR-SJFR style seeding and the
same weighted makespan/flowtime fitness as the paper reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import PopulationBasedScheduler
from repro.core.individual import Individual
from repro.core.termination import SearchState, TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike
from repro.utils.validation import check_integer, check_probability

__all__ = ["SteadyStateGAConfig", "SteadyStateGA"]


@dataclass(frozen=True)
class SteadyStateGAConfig:
    """Parameters of the steady-state GA baseline."""

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
    def fast_defaults(cls) -> "SteadyStateGAConfig":
        """A reduced configuration for unit tests and laptop benchmarks."""
        return cls(population_size=20, offspring_per_iteration=5)


class SteadyStateGA(PopulationBasedScheduler):
    """Steady-state GA with replace-worst (Carretero & Xhafa-style baseline)."""

    algorithm_name = "carretero_xhafa_ga"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: SteadyStateGAConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else SteadyStateGAConfig()
        super().__init__(
            instance,
            population_size=self.config.population_size,
            termination=termination,
            fitness_weight=self.config.fitness_weight,
            seeding_heuristic=self.config.seeding_heuristic,
            rng=rng,
            engine=engine,
        )

    def _iteration(self, state: SearchState) -> bool:
        """A batch of steady-state reproduction steps."""
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

            worst_index = max(
                range(len(self.population)), key=lambda i: self.population[i].fitness
            )
            if child.fitness < self.population[worst_index].fitness:
                self.population[worst_index] = child
                if child.fitness < best_before:
                    improved = True
        return improved
