"""Individuals: a schedule plus its cached fitness and objective values.

An individual is the unit stored in every cell of the cellular population.
It owns its :class:`~repro.model.schedule.Schedule` (individuals never share
schedules, so operators can mutate them freely) and caches the scalar
fitness plus the two raw objectives at the time of the last evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.model.fitness import FitnessEvaluator
from repro.model.schedule import Schedule

__all__ = ["Individual"]


@dataclass
class Individual:
    """A candidate solution in the population.

    Attributes
    ----------
    schedule:
        The owned schedule.
    fitness:
        Scalarized fitness (lower is better); ``inf`` until evaluated.
    makespan, flowtime:
        Objective values captured at the last evaluation.
    """

    schedule: Schedule
    fitness: float = math.inf
    makespan: float = field(default=math.inf)
    flowtime: float = field(default=math.inf)

    @property
    def is_evaluated(self) -> bool:
        """Whether :meth:`evaluate` has been called since the last change."""
        return math.isfinite(self.fitness)

    def evaluate(self, evaluator: FitnessEvaluator) -> float:
        """(Re-)evaluate the individual and refresh the cached values."""
        values = evaluator.evaluate(self.schedule)
        self.fitness = values.fitness
        self.makespan = values.makespan
        self.flowtime = values.flowtime
        return self.fitness

    @classmethod
    def of(cls, schedule: Schedule, fitness: float) -> "Individual":
        """An owned snapshot of *schedule*, whose *fitness* is already known."""
        snapshot = schedule.copy()
        return cls(snapshot, fitness, snapshot.makespan, snapshot.flowtime)

    def copy(self) -> "Individual":
        """Deep copy (schedule included)."""
        return Individual(
            schedule=self.schedule.copy(),
            fitness=self.fitness,
            makespan=self.makespan,
            flowtime=self.flowtime,
        )

    def better_than(self, other: "Individual") -> bool:
        """Strictly better fitness than *other* (both must be evaluated)."""
        return self.fitness < other.fitness

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Individual(fitness={self.fitness:.4g}, makespan={self.makespan:.4g}, "
            f"flowtime={self.flowtime:.4g})"
        )
