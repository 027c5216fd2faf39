"""Simulated annealing scheduler (extension baseline).

Not part of the paper's comparison, but a standard single-solution
metaheuristic for the ETC scheduling problem (it appears in Braun et al.'s
original eleven-heuristic study).  It is included as an additional yardstick
for the benchmark harness and as the natural "cheapest metaheuristic"
comparison point for the cMA: one solution, move/swap neighborhood,
exponentially cooled Metropolis acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.individual import Individual
from repro.core.search import Search
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.heuristics.base import build_schedule
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike
from repro.utils.validation import check_in_range, check_integer, check_probability

__all__ = ["SimulatedAnnealingConfig", "SimulatedAnnealingScheduler"]


@dataclass(frozen=True)
class SimulatedAnnealingConfig:
    """Parameters of the simulated-annealing baseline."""

    initial_acceptance: float = 0.3
    cooling_rate: float = 0.98
    steps_per_iteration: int = 200
    swap_probability: float = 0.4
    seeding_heuristic: str | None = "ljfr_sjfr"
    fitness_weight: float = 0.75

    def __post_init__(self) -> None:
        check_in_range("initial_acceptance", self.initial_acceptance, 0.0, 1.0, inclusive=False)
        check_in_range("cooling_rate", self.cooling_rate, 0.0, 1.0, inclusive=False)
        check_integer("steps_per_iteration", self.steps_per_iteration, minimum=1)
        check_probability("swap_probability", self.swap_probability)
        check_probability("fitness_weight", self.fitness_weight)


class SimulatedAnnealingScheduler(Search):
    """Single-solution annealing over the move/swap neighborhood."""

    algorithm_name = "simulated_annealing"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: SimulatedAnnealingConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else SimulatedAnnealingConfig()
        super().__init__(
            instance,
            termination,
            fitness_weight=self.config.fitness_weight,
            rng=rng,
            engine=engine,
        )
        self.current: Schedule | None = None
        self.current_fitness = math.inf
        self.temperature = math.inf

    def _initial_temperature(self, fitness: float) -> float:
        """Temperature at which a `initial_acceptance` relative worsening is accepted."""
        relative_worsening = 0.05 * fitness
        return -relative_worsening / np.log(self.config.initial_acceptance)

    def _propose(self, schedule) -> tuple[str, int, int]:
        """Draw one random move or swap (returned so it can be undone)."""
        nb_jobs = self.instance.nb_jobs
        nb_machines = self.instance.nb_machines
        if nb_jobs >= 2 and self.rng.random() < self.config.swap_probability:
            job_a, job_b = self.rng.choice(nb_jobs, 2, replace=False)
            schedule.swap_jobs(int(job_a), int(job_b))
            return ("swap", int(job_a), int(job_b))
        job = int(self.rng.integers(nb_jobs))
        old = int(schedule.assignment[job])
        machine = int(self.rng.integers(nb_machines))
        schedule.move_job(job, machine)
        return ("move", job, old)

    @staticmethod
    def _undo(schedule, operation: tuple[str, int, int]) -> None:
        kind, a, b = operation
        if kind == "swap":
            schedule.swap_jobs(a, b)
        else:
            schedule.move_job(a, b)

    def _begin(self) -> Individual:
        self.current = build_schedule(
            self.config.seeding_heuristic or "random", self.instance, self.rng
        )
        self.current_fitness = self.evaluator(self.current)
        self.temperature = self._initial_temperature(self.current_fitness)
        return Individual.of(self.current, self.current_fitness)

    def _iterate(self) -> bool:
        cfg = self.config
        current = self.current
        improved = False
        for _ in range(cfg.steps_per_iteration):
            operation = self._propose(current)
            candidate_fitness = self.evaluator.scalarize(
                current.makespan, current.mean_flowtime
            )
            delta = candidate_fitness - self.current_fitness
            if delta <= 0 or self.rng.random() < np.exp(
                -delta / max(self.temperature, 1e-12)
            ):
                self.current_fitness = candidate_fitness
                if candidate_fitness < self.best.fitness:
                    self.best = Individual.of(current, candidate_fitness)
                    improved = True
            else:
                self._undo(current, operation)
        self.temperature *= cfg.cooling_rate
        # One counted evaluation per accepted-state snapshot keeps the
        # evaluation budget meaning comparable across algorithms.
        self.evaluator(current)
        return improved

    def _metadata(self) -> dict:
        return {"cooling_rate": self.config.cooling_rate}
