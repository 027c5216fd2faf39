"""A generational GA in the style of Braun et al. (2001).

Braun et al.'s GA — the comparison column of Table 2 — is a classic
generational genetic algorithm: a 200-individual population seeded with a
Min-Min solution, rank/roulette-style parent selection, one-point crossover,
a light mutation, and elitism (the best individual always survives to the
next generation).  This module reimplements that scheme on top of the shared
:class:`~repro.baselines.base.PopulationBasedScheduler` machinery.

The reproduction keeps the published structure but exposes every rate as a
parameter so that the benchmark harness can also run reduced-size
configurations on laptop budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import PopulationBasedScheduler
from repro.core.individual import Individual
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike
from repro.utils.validation import check_integer, check_probability

__all__ = ["GAConfig", "GenerationalGA"]


@dataclass(frozen=True)
class GAConfig:
    """Parameters of the generational GA baseline."""

    population_size: int = 200
    crossover_probability: float = 0.6
    mutation_probability: float = 0.4
    tournament_size: int = 2
    elitism: int = 1
    seeding_heuristic: str | None = "min_min"
    fitness_weight: float = 0.75

    def __post_init__(self) -> None:
        check_integer("population_size", self.population_size, minimum=2)
        check_probability("crossover_probability", self.crossover_probability)
        check_probability("mutation_probability", self.mutation_probability)
        check_integer("tournament_size", self.tournament_size, minimum=1)
        check_integer("elitism", self.elitism, minimum=0)
        check_probability("fitness_weight", self.fitness_weight)
        if self.elitism >= self.population_size:
            raise ValueError("elitism must be smaller than the population size")

    @classmethod
    def braun_defaults(cls) -> "GAConfig":
        """The published configuration (200 individuals, Min-Min seeding)."""
        return cls()

    @classmethod
    def fast_defaults(cls) -> "GAConfig":
        """A reduced configuration for unit tests and laptop benchmarks."""
        return cls(population_size=30)


class GenerationalGA(PopulationBasedScheduler):
    """Generational GA with elitism (Braun et al.-style baseline)."""

    algorithm_name = "braun_ga"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: GAConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else GAConfig.braun_defaults()
        super().__init__(
            instance,
            population_size=self.config.population_size,
            termination=termination,
            fitness_weight=self.config.fitness_weight,
            seeding_heuristic=self.config.seeding_heuristic,
            rng=rng,
            engine=engine,
        )

    def _iteration(self) -> bool:
        """One generation: elitism + offspring filling the rest of the population."""
        cfg = self.config
        ranked = sorted(self.population, key=lambda ind: ind.fitness)
        next_population: list[Individual] = [
            ranked[i].copy() for i in range(cfg.elitism)
        ]

        best_before = ranked[0].fitness
        while len(next_population) < self.population_size:
            parent_a = self._tournament(self.population, cfg.tournament_size)
            parent_b = self._tournament(self.population, cfg.tournament_size)
            if self.rng.random() < cfg.crossover_probability:
                child_assignment = self.crossover.recombine(
                    (parent_a.schedule.assignment, parent_b.schedule.assignment), self.rng
                )
                child = Individual(Schedule(self.instance, child_assignment))
            else:
                child = parent_a.copy()
            if self.rng.random() < cfg.mutation_probability:
                self.mutation.mutate(child.schedule, self.rng)
            child.evaluate(self.evaluator)
            next_population.append(child)

        self.population = next_population
        best_after = min(self.population, key=lambda ind: ind.fitness).fitness
        return best_after < best_before
