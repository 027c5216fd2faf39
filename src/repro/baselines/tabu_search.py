"""Tabu-search scheduler (extension baseline).

Like simulated annealing, tabu search is one of the classic metaheuristics
evaluated on the ETC benchmark by Braun et al.  The variant here keeps the
algorithm deliberately small: best-of-a-sample move neighborhood restricted
to the makespan-defining machine, a recency-based tabu list on (job, source
machine) pairs, and aspiration by objective (a tabu move is allowed when it
improves the global best).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.individual import Individual
from repro.core.search import Search
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.heuristics.base import build_schedule
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike
from repro.utils.validation import check_integer, check_probability

__all__ = ["TabuSearchConfig", "TabuSearchScheduler"]


@dataclass(frozen=True)
class TabuSearchConfig:
    """Parameters of the tabu-search baseline."""

    tabu_tenure: int = 16
    candidate_moves: int = 64
    seeding_heuristic: str | None = "min_min"
    fitness_weight: float = 0.75

    def __post_init__(self) -> None:
        check_integer("tabu_tenure", self.tabu_tenure, minimum=1)
        check_integer("candidate_moves", self.candidate_moves, minimum=1)
        check_probability("fitness_weight", self.fitness_weight)


class TabuSearchScheduler(Search):
    """Recency-based tabu search over single-job moves."""

    algorithm_name = "tabu_search"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: TabuSearchConfig | None = None,
        *,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else TabuSearchConfig()
        super().__init__(
            instance,
            termination,
            fitness_weight=self.config.fitness_weight,
            rng=rng,
            engine=engine,
        )
        self.current: Schedule | None = None
        self.tabu: deque[tuple[int, int]] = deque(maxlen=self.config.tabu_tenure)

    def _begin(self) -> Individual:
        self.current = build_schedule(
            self.config.seeding_heuristic or "random", self.instance, self.rng
        )
        self.tabu.clear()
        return Individual.of(self.current, self.evaluator(self.current))

    def _iterate(self) -> bool:
        current = self.current
        nb_jobs = self.instance.nb_jobs
        nb_machines = self.instance.nb_machines
        # Candidate moves: random jobs (biased towards the makespan machine)
        # to random destinations; pick the best admissible one.
        best_move = None
        best_move_fitness = float("inf")
        overloaded = current.most_loaded_machine()
        overloaded_jobs = current.machine_jobs(overloaded)
        for _ in range(self.config.candidate_moves):
            if overloaded_jobs.size and self.rng.random() < 0.5:
                job = int(self.rng.choice(overloaded_jobs))
            else:
                job = int(self.rng.integers(nb_jobs))
            source = int(current.assignment[job])
            destination = int(self.rng.integers(nb_machines))
            if destination == source:
                continue
            current.move_job(job, destination)
            fitness = self.evaluator.scalarize(current.makespan, current.mean_flowtime)
            current.move_job(job, source)
            is_tabu = (job, destination) in self.tabu
            aspired = fitness < self.best.fitness
            if (not is_tabu or aspired) and fitness < best_move_fitness:
                best_move_fitness = fitness
                best_move = (job, source, destination)

        if best_move is None:
            return False
        job, source, destination = best_move
        current.move_job(job, destination)
        self.tabu.append((job, source))  # forbid moving the job back for a while
        self.evaluator(current)
        if best_move_fitness < self.best.fitness:
            self.best = Individual.of(current, best_move_fitness)
            return True
        return False

    def _metadata(self) -> dict:
        return {"tabu_tenure": self.config.tabu_tenure}
