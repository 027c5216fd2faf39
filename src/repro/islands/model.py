"""The island model: K engine-resident algorithm runs with migration.

:class:`IslandModel` runs ``nb_islands`` independent instances of one
algorithm spec — each with its own :class:`~repro.engine.service.
EvaluationEngine`, resident population and random stream — and periodically
copies the best rows between them along a
:class:`~repro.islands.topology.MigrationTopology`.  Two execution modes
share all of the migration code and differ only in scheduling:

* ``workers=0`` — the **deterministic in-process driver**: islands advance
  round-robin to their next migration point, then exchange emigrants
  synchronously (collect all parcels first, then integrate), so a fixed
  seed always reproduces the same trajectories.  This is the reference
  semantics and what the tests pin.
* ``workers=nb_islands`` — one **worker process per island**: each island
  runs freely and exchanges rows through the shared-memory migration board
  (:mod:`repro.islands.worker`) without barriers, so a slow island never
  stalls the others.  Timing decides which publication a reader observes;
  determinism is traded for wall-clock scaling.

The determinism contract that anchors both modes: with
``migration_interval=None`` the islands never interact, and the model's
per-island results are **bit-identical** to the same number of independent
:func:`repro.experiments.runner.repeat_run` repetitions with the same seed
(both derive per-run streams through
:func:`repro.utils.rng.spawn_seed_sequences`).
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

import numpy as np

from repro.core.config import IslandConfig
from repro.core.replacement import get_replacement
from repro.core.termination import TerminationCriteria
from repro.engine.results import SchedulingResult
from repro.engine.service import EvaluationEngine
from repro.islands.migration import (
    EmigrantParcel,
    MigrationClock,
    integrate_immigrants,
    select_emigrants,
)
from repro.islands.topology import MigrationTopology, get_topology
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike, as_generator, spawn_seed_sequences
from repro.utils.timer import Stopwatch
from repro.utils.workers import run_workers, worker_context

__all__ = ["IslandModel", "IslandRuntime"]

#: Lifecycle methods an algorithm must expose for mid-run migration.
_STEPPABLE_METHODS = ("start", "step", "should_continue", "finish")


class _SpecLike(Protocol):
    """Anything that can build a scheduler for one run (an ``AlgorithmSpec``)."""

    name: str

    def build(self, instance, termination, rng=None, engine=None): ...


def _is_steppable(scheduler: Any) -> bool:
    return all(hasattr(scheduler, method) for method in _STEPPABLE_METHODS)


class IslandRuntime:
    """One island: a scheduler, its engine, its streams and its clock.

    Both execution modes drive islands exclusively through this class, so
    migration semantics (what is selected, how immigrants are integrated,
    how the budget is charged) are identical in-process and across worker
    processes.

    The algorithm stream is materialized exactly as ``repeat_run``
    materializes per-repetition generators; the migration stream is a
    spawned child of it, so enabling migration never perturbs the
    algorithm's own draws.
    """

    def __init__(
        self,
        island_id: int,
        instance: SchedulingInstance,
        spec: _SpecLike,
        termination: TerminationCriteria,
        algorithm_stream: RNGLike,
        migration_stream: RNGLike,
        config: IslandConfig,
    ) -> None:
        self.island_id = int(island_id)
        self.instance = instance
        self.config = config
        self.rng = as_generator(algorithm_stream)
        self.migration_rng = as_generator(migration_stream)
        self.engine = EvaluationEngine(instance)
        self.scheduler = spec.build(instance, termination, self.rng, engine=self.engine)
        self.clock = MigrationClock(config.migration_interval, config.interval_unit)
        self.replacement = get_replacement(config.immigrant_replacement)
        self.migrations_out = 0
        self.migrations_in = 0
        self.immigrants_adopted = 0
        self._started = False
        self._result: SchedulingResult | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def steppable(self) -> bool:
        """Whether the scheduler exposes the start/step/finish lifecycle."""
        return _is_steppable(self.scheduler)

    @property
    def grid(self):
        """The scheduler's resident grid (populations migrate as its rows)."""
        return getattr(self.scheduler, "grid", None)

    def ensure_started(self) -> None:
        """Initialize the run (idempotent); validates migration capability."""
        if self._started:
            return
        if self.config.migration_enabled:
            if not self.steppable:
                raise TypeError(
                    f"migration needs a steppable scheduler "
                    f"(start/step/should_continue/finish); "
                    f"{type(self.scheduler).__name__} is not — "
                    f"run it with migration_interval=None instead"
                )
            self.scheduler.start()
            if self.grid is None:
                raise TypeError(
                    f"migration needs a resident grid; "
                    f"{type(self.scheduler).__name__} exposes none"
                )
        elif self.steppable:
            self.scheduler.start()
        self._started = True

    @property
    def active(self) -> bool:
        """Started, not finished, and the termination criteria still allow work."""
        if not self._started or self._result is not None:
            return False
        if not self.steppable:
            return False
        return bool(self.scheduler.should_continue())

    def step(self) -> None:
        """Run one scheduler iteration."""
        self.scheduler.step()

    def run_isolated(self) -> SchedulingResult:
        """Run to completion with no migration (bit-identical to ``spec.build(...).run()``)."""
        if self._result is None:
            self._result = self.scheduler.run()
            self._attach_metadata(self._result)
        return self._result

    def finish_result(self) -> SchedulingResult:
        """Finalize the island's result after a stepped run."""
        if self._result is None:
            self._result = self.scheduler.finish()
            self._attach_metadata(self._result)
        return self._result

    def _attach_metadata(self, result: SchedulingResult) -> None:
        result.metadata["island"] = {
            "island": self.island_id,
            "migrations_out": self.migrations_out,
            "migrations_in": self.migrations_in,
            "immigrants_adopted": self.immigrants_adopted,
        }

    # ------------------------------------------------------------------ #
    # Migration
    # ------------------------------------------------------------------ #
    def migration_due(self) -> bool:
        """Whether the island has crossed its next migration point."""
        return self.clock.due(self.engine)

    def advance_clock(self) -> None:
        """Move the clock past every stride already crossed."""
        self.clock.advance(self.engine)

    def advance_until_due(self) -> None:
        """Step until the next migration point (or termination) is reached."""
        while self.active and not self.clock.due(self.engine):
            before = self.clock.progress(self.engine)
            self.scheduler.step()
            if (
                self.config.interval_unit == "evaluations"
                and self.clock.progress(self.engine) <= before
            ):
                # A scheduler that evaluates nothing per iteration would
                # never reach the next point; treat the stride as crossed.
                break

    def emigrate(self) -> EmigrantParcel:
        """Select this island's emigrant rows (an owned copy)."""
        self.migrations_out += 1
        return select_emigrants(
            self.grid,
            self.config.nb_emigrants,
            self.config.emigrant_selection,
            self.migration_rng,
        )

    def immigrate(self, parcel: EmigrantParcel) -> int:
        """Integrate an emigrant parcel from a source island."""
        adopted = integrate_immigrants(self.grid, parcel.assignments, self.replacement)
        self.migrations_in += 1
        self.immigrants_adopted += adopted
        if adopted:
            sync = getattr(self.scheduler, "sync_best_from_grid", None)
            if sync is not None:
                sync()
        # Keep the termination counters honest: integration charged the
        # engine, and the scheduler's state is what should_stop() reads.
        state = getattr(self.scheduler, "state", None)
        if state is not None:
            state.evaluations = self.engine.evaluations
        return adopted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IslandRuntime(island={self.island_id}, "
            f"scheduler={type(self.scheduler).__name__}, "
            f"evaluations={self.engine.evaluations})"
        )


class IslandModel:
    """Run ``config.nb_islands`` islands of one algorithm spec.

    Parameters
    ----------
    instance:
        The scheduling instance every island solves.
    spec:
        An algorithm spec (anything with
        ``build(instance, termination, rng, engine)``); the cMA spec of
        :func:`repro.experiments.runner.cma_spec` is the canonical choice.
    config:
        The :class:`~repro.core.config.IslandConfig`; defaults to four
        ring-connected islands run in-process.
    termination:
        **Per-island** budget.  For a fixed total evaluation budget across
        the model, divide by ``nb_islands`` (what the scaling benchmark
        does); for the paper's wall-clock protocol, give every island the
        same 90-second budget.
    rng:
        Root source of randomness; island streams are spawned from it with
        :func:`~repro.utils.rng.spawn_seed_sequences`.

    After :meth:`run`, :attr:`island_results` holds the per-island
    :class:`~repro.engine.results.SchedulingResult` records in island order.
    """

    def __init__(
        self,
        instance: SchedulingInstance,
        spec: _SpecLike,
        config: IslandConfig | None = None,
        termination: TerminationCriteria | None = None,
        rng: RNGLike = None,
    ) -> None:
        self.instance = instance
        self.spec = spec
        self.config = config if config is not None else IslandConfig()
        self.termination = (
            termination
            if termination is not None
            else TerminationCriteria.by_iterations(100)
        )
        self._rng = rng
        self.topology: MigrationTopology = get_topology(
            self.config.topology, self.config.nb_islands
        )
        self.island_results: list[SchedulingResult] = []
        self.elapsed_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> SchedulingResult:
        """Run every island and return the combined (best-island) result."""
        cfg = self.config
        algorithm_streams = spawn_seed_sequences(self._rng, cfg.nb_islands)
        migration_streams = [stream.spawn(1)[0] for stream in algorithm_streams]
        stopwatch = Stopwatch()
        if cfg.workers == 0:
            results = self._run_in_process(algorithm_streams, migration_streams)
        else:
            results = self._run_workers(algorithm_streams, migration_streams)
        self.elapsed_seconds = stopwatch.elapsed
        self.island_results = results
        return self._combine(results)

    def _runtimes(
        self,
        algorithm_streams: Sequence[np.random.SeedSequence],
        migration_streams: Sequence[np.random.SeedSequence],
    ) -> list[IslandRuntime]:
        return [
            IslandRuntime(
                island_id=island,
                instance=self.instance,
                spec=self.spec,
                termination=self.termination,
                algorithm_stream=algorithm_streams[island],
                migration_stream=migration_streams[island],
                config=self.config,
            )
            for island in range(self.config.nb_islands)
        ]

    def _run_in_process(
        self,
        algorithm_streams: Sequence[np.random.SeedSequence],
        migration_streams: Sequence[np.random.SeedSequence],
    ) -> list[SchedulingResult]:
        """The deterministic driver: synchronous migration rounds (BSP)."""
        runtimes = self._runtimes(algorithm_streams, migration_streams)
        if not self.config.migration_enabled:
            return [runtime.run_isolated() for runtime in runtimes]

        for runtime in runtimes:
            runtime.ensure_started()
        while any(runtime.active for runtime in runtimes):
            for runtime in runtimes:
                runtime.advance_until_due()
            # Synchronous exchange: every parcel is selected from the
            # pre-migration state of its island (finished islands still
            # donate their frozen best), then integrated — so the round's
            # outcome does not depend on island iteration order.
            parcels = [runtime.emigrate() for runtime in runtimes]
            for island, runtime in enumerate(runtimes):
                if not runtime.active:
                    continue
                for source in self.topology.sources_of(island):
                    runtime.immigrate(parcels[source])
            for runtime in runtimes:
                runtime.advance_clock()
        return [runtime.finish_result() for runtime in runtimes]

    def _run_workers(
        self,
        algorithm_streams: Sequence[np.random.SeedSequence],
        migration_streams: Sequence[np.random.SeedSequence],
    ) -> list[SchedulingResult]:
        """One worker process per island, migrating through shared memory."""
        from repro.islands.worker import MigrationBoard, WorkerTask, run_island_worker

        cfg = self.config
        context = worker_context(cfg.start_method)
        board = (
            MigrationBoard(cfg.nb_islands, cfg.nb_emigrants, self.instance.nb_jobs)
            if cfg.migration_enabled
            else None
        )
        locks = [context.Lock() for _ in range(cfg.nb_islands)]
        try:
            tasks = {
                island: (
                    WorkerTask(
                        island_id=island,
                        instance=self.instance,
                        spec=self.spec,
                        termination=self.termination,
                        algorithm_stream=algorithm_streams[island],
                        migration_stream=migration_streams[island],
                        config=cfg,
                        sources=self.topology.sources_of(island),
                        board_name=board.name if board is not None else None,
                        start_method=context.get_start_method(),
                    ),
                    locks,
                )
                for island in range(cfg.nb_islands)
            }
            collected = run_workers(
                context, run_island_worker, tasks, cfg.worker_timeout, "island"
            )
        finally:
            if board is not None:
                board.close()
                board.unlink()
        return [collected[island] for island in range(cfg.nb_islands)]

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _combine(self, results: Sequence[SchedulingResult]) -> SchedulingResult:
        """The model's result: the best island, with per-island metadata."""
        best_island = min(
            range(len(results)), key=lambda island: results[island].best_fitness
        )
        best = results[best_island]
        per_island = []
        for island, result in enumerate(results):
            row = {
                "island": island,
                "best_fitness": result.best_fitness,
                "makespan": result.makespan,
                "flowtime": result.flowtime,
                "evaluations": result.evaluations,
                "iterations": result.iterations,
                "elapsed_seconds": result.elapsed_seconds,
            }
            row.update(result.metadata.get("island", {}))
            per_island.append(row)
        return SchedulingResult(
            algorithm=f"islands[{len(results)}x{best.algorithm}]",
            instance_name=best.instance_name,
            best_schedule=best.best_schedule.copy(),
            best_fitness=best.best_fitness,
            makespan=best.makespan,
            flowtime=best.flowtime,
            mean_flowtime=best.mean_flowtime,
            evaluations=sum(result.evaluations for result in results),
            iterations=sum(result.iterations for result in results),
            elapsed_seconds=self.elapsed_seconds,
            history=best.history.copy(),
            metadata={
                "islands": self.config.describe(),
                "best_island": best_island,
                "per_island": per_island,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IslandModel(instance={self.instance.name!r}, "
            f"islands={self.config.nb_islands}, topology={self.config.topology!r}, "
            f"workers={self.config.workers})"
        )
