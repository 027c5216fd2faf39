"""Migration mechanics: emigrant selection and immigrant integration.

Migration moves **rows**, not objects: an emigrant parcel is a
``(k, jobs)`` assignment matrix plus its ``(k,)`` fitness vector, copied out
of the source island's resident grid; integration stages the rows into the
destination grid's scratch block (one vectorized write + subset recompute),
evaluates them through the island's own engine, and lets the configured
:class:`~repro.core.replacement.ReplacementPolicy` decide — through its
array-capable :meth:`~repro.core.replacement.ReplacementPolicy.accepts` —
which immigrants take over the island's worst cells.

Both the deterministic in-process driver and the shared-memory worker path
go through exactly these two functions, so the migration semantics are the
same regardless of how islands are scheduled; only the transport differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import EMIGRANT_SELECTIONS, MIGRATION_INTERVAL_UNITS
from repro.core.population import ResidentGrid
from repro.core.replacement import ReplacementPolicy
from repro.engine.service import EvaluationEngine
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_integer

__all__ = ["EmigrantParcel", "MigrationClock", "select_emigrants", "integrate_immigrants"]


@dataclass(frozen=True)
class EmigrantParcel:
    """A batch of emigrant rows copied out of one island's grid."""

    assignments: np.ndarray  # (k, jobs) int64, owned copy
    fitnesses: np.ndarray  # (k,) float64, owned copy

    def __len__(self) -> int:
        return int(self.assignments.shape[0])


class MigrationClock:
    """Tracks when an island's next migration point is due.

    The clock measures progress on the island's own engine — evaluations
    (deterministic) or elapsed seconds — and advances in fixed strides, so
    an island that overshoots a point (a whole iteration costs many
    evaluations) still fires exactly once per crossed stride.
    """

    def __init__(self, interval: float | None, unit: str) -> None:
        if unit not in MIGRATION_INTERVAL_UNITS:
            raise ValueError(f"unknown interval unit {unit!r}")
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be positive or None, got {interval}")
        self.interval = interval
        self.unit = unit
        self.next_point = interval

    def progress(self, engine: EvaluationEngine) -> float:
        """The engine's position on this clock's axis."""
        return float(engine.evaluations if self.unit == "evaluations" else engine.elapsed)

    def due(self, engine: EvaluationEngine) -> bool:
        """Whether the next migration point has been reached."""
        return self.next_point is not None and self.progress(engine) >= self.next_point

    def advance(self, engine: EvaluationEngine) -> None:
        """Move past every stride the engine has already crossed."""
        if self.next_point is None:
            return
        position = self.progress(engine)
        while self.next_point <= position:
            self.next_point += self.interval


def select_emigrants(
    grid: ResidentGrid,
    count: int,
    selection: str = "best_k",
    rng: RNGLike = None,
) -> EmigrantParcel:
    """Copy *count* emigrant rows out of *grid*.

    ``"best_k"`` takes the cells with the lowest fitness (ties broken by
    cell position, deterministically); ``"random_k"`` draws distinct cells
    uniformly with *rng*.  The parcel owns its data — emigration never
    aliases the source grid's matrices.
    """
    check_integer("count", count, minimum=1)
    if selection not in EMIGRANT_SELECTIONS:
        raise ValueError(
            f"emigrant selection must be one of {EMIGRANT_SELECTIONS}, "
            f"got {selection!r}"
        )
    count = min(int(count), grid.size)
    fitness = grid.fitness_values()
    if selection == "best_k":
        positions = np.argsort(fitness, kind="stable")[:count]
    else:
        positions = as_generator(rng).choice(grid.size, count, replace=False)
    positions = np.asarray(positions, dtype=np.int64)
    return EmigrantParcel(
        assignments=grid.batch.assignments[positions].copy(),
        fitnesses=fitness[positions].copy(),
    )


def integrate_immigrants(
    grid: ResidentGrid,
    assignments: np.ndarray,
    replacement: ReplacementPolicy,
) -> int:
    """Challenge *grid*'s worst cells with immigrant rows; returns adoptions.

    The immigrant assignments are staged into the grid's scratch rows (a
    vectorized row write plus one subset recompute — no pickling, no object
    churn), evaluated through the island's engine (migration is charged to
    the island's evaluation budget like any other offspring), and paired
    best-immigrant-to-worst-cell.  The replacement policy then accepts or
    rejects the whole pairing in one array comparison; accepted immigrants
    are adopted with one row copy.
    """
    matrix = np.asarray(assignments, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.shape[0] == 0:
        return 0
    usable = min(matrix.shape[0], grid.scratch_rows, grid.size)
    if usable == 0:
        return 0
    matrix = matrix[:usable]

    rows = grid.stage(matrix)
    immigrant_fitness = grid.evaluate_rows(rows)
    # Best immigrants first...
    order = np.argsort(immigrant_fitness, kind="stable")
    rows, immigrant_fitness = rows[order], immigrant_fitness[order]
    # ...challenge the worst incumbents first.
    incumbent_fitness = grid.fitness_values()
    targets = np.argsort(incumbent_fitness, kind="stable")[::-1][:usable]
    accepted = np.atleast_1d(
        replacement.accepts(incumbent_fitness[targets], immigrant_fitness)
    )
    grid.adopt(targets[accepted], rows[accepted])
    return int(accepted.sum())
