"""The warm dynamic scheduling service: a persistent, engine-resident cMA.

:class:`~repro.grid.scheduler.CMABatchPolicy` pays a full cold start at every
scheduler activation — a fresh engine, a fresh heuristic seed, a fresh
initial local-search pass over the whole mesh.  The paper's deployment claim
(Sections 1 and 6) is that the cMA runs "in batch mode for a very short
time" whenever the simulator's activation driver fires a ``SCHEDULER_TICK``
(periodically or adaptively — see
:class:`~repro.core.config.ActivationPolicy`); consecutive activations of a
real grid overlap heavily (most pending jobs were pending one activation
ago), so almost all of that cold-start work re-derives information the
previous activation already had.  Sparser adaptive activations only
strengthen the case for keeping the engine warm: each activation's batch is
larger, so the reseat high-water mark is hit sooner and amortized longer.

:class:`DynamicSchedulerService` keeps exactly one cMA's worth of state
alive across the whole simulation:

* **capacity** — one :class:`~repro.engine.batch.BatchEvaluator` whose
  backing stores are grow-only (:meth:`~repro.engine.batch.BatchEvaluator.
  reseat`): an activation whose batch fits under the high-water mark reuses
  the resident rows, only a larger batch reallocates (padded by
  :attr:`~repro.core.config.WarmStartConfig.capacity_slack`);
* **knowledge** — the previous activation's plan, remembered as a
  ``job_id → machine_id`` mapping.  At the next activation, jobs still
  pending keep their last assignment (remapped through the stable ids the
  simulator publishes in ``instance.metadata``, which drops machines that
  left the grid), unassigned jobs (new arrivals, orphans of departed
  machines) are placed by a constructive heuristic on top of the carried
  load, and only the remaining population rows are randomly seeded;
* **lifecycle** — each activation re-primes a
  :class:`~repro.core.population.ResidentGrid` over the resident batch and
  drives the standard ``start/step/should_continue/finish`` cMA lifecycle
  under the per-activation budget, skipping the initial whole-population
  local-search pass by default (the carried rows descend from an
  already-improved plan).

:class:`WarmCMAPolicy` exposes the service through the ordinary
:class:`~repro.grid.scheduler.BatchSchedulingPolicy` interface, so the
simulator, the CLI (``repro-scheduler simulate --policy warm-cma``) and the
benchmarks treat it like any other policy.  With
``WarmStartConfig(mode="off")`` the policy is trajectory-identical to the
cold :class:`~repro.grid.scheduler.CMABatchPolicy` under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig, WarmStartConfig
from repro.core.population import ResidentGrid
from repro.engine.batch import BatchEvaluator, perturbed_copies
from repro.engine.service import EvaluationEngine
from repro.grid.scheduler import (
    BatchSchedulingPolicy,
    CMABatchPolicy,
    degenerate_assignment,
)
from repro.heuristics.base import build_schedule
from repro.model.fitness import FitnessEvaluator
from repro.model.instance import SchedulingInstance
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.phases import PhaseTimer
from repro.utils.rng import RNGLike, as_generator

__all__ = ["ServiceStats", "DynamicSchedulerService", "WarmCMAPolicy"]


@dataclass
class ServiceStats:
    """Counters describing what the service reused across activations."""

    activations: int = 0
    #: Jobs whose assignment was carried over from the previous plan.
    carried_jobs: int = 0
    #: Jobs placed by the fill heuristic (new arrivals + churn orphans).
    filled_jobs: int = 0
    #: Activations solved by the degenerate fallback (no cMA run).
    degenerate_batches: int = 0
    #: Jobs scheduled through the degenerate fallback.  Together with the
    #: carried/filled counters this accounts for every planned job:
    #: ``carried + filled + degenerate == Σ batch sizes`` over all
    #: warm-mode activations.
    degenerate_jobs: int = 0
    #: Activations the live service solved through the degraded Min-Min
    #: path (overload shed-to-heuristic, no cMA run — see
    #: :meth:`DynamicSchedulerService.degraded_schedule`).
    degraded_batches: int = 0
    #: Jobs scheduled through the degraded Min-Min path.
    degraded_jobs: int = 0
    #: Times the resident buffers had to grow (first allocation included).
    capacity_reallocations: int = 0
    #: Cumulative engine evaluations charged by the warm cMA runs (the
    #: shared evaluator's counter, mirrored here so snapshots and trace
    #: spans can report per-activation evaluation deltas).
    evaluations: int = 0


class DynamicSchedulerService:
    """Keeps one warm, engine-resident cMA alive across scheduler activations.

    Parameters
    ----------
    config:
        Base cMA configuration; its termination criterion is replaced by the
        per-activation budget below.
    warm_start:
        The warm-start policy (:class:`~repro.core.config.WarmStartConfig`);
        defaults to carrying the previous plan.
    max_seconds, max_iterations, max_stagnant_iterations:
        Per-activation budget, mirroring
        :class:`~repro.grid.scheduler.CMABatchPolicy` so cold and warm runs
        compare at equal budgets.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` charged with the
        warm-start reuse counters (carried/filled/degenerate/degraded jobs,
        buffer reallocations); defaults to the no-op null registry.
    """

    def __init__(
        self,
        config: CMAConfig | None = None,
        warm_start: WarmStartConfig | None = None,
        *,
        max_seconds: float = 0.25,
        max_iterations: int | None = 50,
        max_stagnant_iterations: int | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        # The cold twin used when warm starting is off: sharing its exact
        # configuration *and* schedule() implementation keeps "off"
        # trajectory-identical to CMABatchPolicy under the same seed, by
        # construction.
        self._cold = CMABatchPolicy(
            config=config,
            max_seconds=max_seconds,
            max_iterations=max_iterations,
            max_stagnant_iterations=max_stagnant_iterations,
        )
        self.config = self._cold.config
        self.warm_start = warm_start if warm_start is not None else WarmStartConfig()
        self.stats = ServiceStats()
        self._evaluator = FitnessEvaluator(self.config.fitness_weight)
        self._batch: BatchEvaluator | None = None
        self._plan: dict[int, int] = {}
        self._registry = registry if registry is not None else NULL_REGISTRY
        jobs = self._registry.counter(
            "repro_scheduler_jobs_total",
            "Jobs planned by the warm scheduler, by placement path.",
            labels=("path",),
        )
        self._m_jobs = {
            path: jobs.labels(path=path)
            for path in ("carried", "filled", "degenerate", "degraded")
        }
        batches = self._registry.counter(
            "repro_scheduler_batches_total",
            "Warm-scheduler activations, by solving path.",
            labels=("path",),
        )
        self._m_batches = {
            path: batches.labels(path=path)
            for path in ("warm", "degenerate", "degraded", "cold")
        }
        self._m_reallocations = self._registry.counter(
            "repro_scheduler_reallocations_total",
            "Times the resident population buffers had to grow.",
        )
        #: Wall-clock phase split of the most recent activation
        #: (``warm_remap`` — plan remap, fill heuristic and population
        #: seeding; ``evaluate`` — the cMA evaluation loop).  The shared
        #: activation (:mod:`repro.grid.activation`) merges this under its
        #: instance-build / solve / commit envelope.
        self.last_phases: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Introspection (used by tests and the benchmarks)
    # ------------------------------------------------------------------ #
    @property
    def batch(self) -> BatchEvaluator | None:
        """The resident population state (``None`` before the first cMA run)."""
        return self._batch

    @property
    def plan(self) -> dict[int, int]:
        """The last remembered plan (``job_id → machine_id``, a copy)."""
        return dict(self._plan)

    def reset(self) -> None:
        """Forget all cross-simulation state (plan, resident buffers, stats).

        A service carries knowledge *across activations of one simulation*;
        reusing the same service object for a second, unrelated simulation
        (a new trace replay, another repetition) would leak the first run's
        plan into the second's warm starts and skew any comparison.  Call
        ``reset()`` between runs — or build a fresh policy per run, which is
        what the replay arena's policy specs do.
        """
        self._plan = {}
        self._batch = None
        self.stats = ServiceStats()
        self.last_phases = {}

    # ------------------------------------------------------------------ #
    # Warm-start construction
    # ------------------------------------------------------------------ #
    def warm_assignment(
        self, instance: SchedulingInstance, rng: RNGLike = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(plan, carried)`` warm assignment for one activation's batch.

        ``plan`` is a full assignment vector for *instance*; ``carried``
        marks the jobs whose machine was carried over from the previous
        plan.  Carrying remaps stable ids through ``instance.metadata``
        (``"job_ids"`` / ``"machine_ids"``): a job keeps its machine only if
        that machine is still part of the batch — departed machines are
        dropped, and their jobs (like new arrivals) are placed by the fill
        heuristic *on top of* the carried per-machine load.
        """
        nb_jobs = instance.nb_jobs
        job_ids = instance.metadata.get("job_ids")
        machine_ids = instance.metadata.get("machine_ids")
        plan = np.full(nb_jobs, -1, dtype=np.int64)
        if job_ids is not None and machine_ids is not None and self._plan:
            plan = self._remap_plan(
                np.asarray(job_ids, dtype=np.int64),
                np.asarray(machine_ids, dtype=np.int64),
            )
        carried = plan >= 0
        missing = np.nonzero(~carried)[0]
        if missing.size:
            # Ready times of the fill sub-instance = batch ready times plus
            # the carried load, so the heuristic sees the machines as the
            # carried plan leaves them.
            load = np.bincount(
                plan[carried],
                weights=instance.etc[np.nonzero(carried)[0], plan[carried]],
                minlength=instance.nb_machines,
            )
            sub_instance = SchedulingInstance(
                etc=instance.etc[missing],
                ready_times=instance.ready_times + load,
                name=f"{instance.name}/warm-fill",
            )
            fill = build_schedule(self.warm_start.fill_heuristic, sub_instance, rng)
            plan[missing] = np.asarray(fill.assignment, dtype=np.int64)
        return plan, carried

    def _remap_plan(self, job_ids: np.ndarray, machine_ids: np.ndarray) -> np.ndarray:
        """Carry the previous plan into this batch's columns, fully vectorized.

        Two sorted-lookup passes: batch job id → previous machine id, then
        previous machine id → current machine column.  Jobs without a plan
        entry and jobs whose machine left the grid resolve to ``-1``.
        """
        previous_jobs = np.fromiter(self._plan.keys(), dtype=np.int64, count=len(self._plan))
        previous_machines = np.fromiter(
            self._plan.values(), dtype=np.int64, count=len(self._plan)
        )
        order = np.argsort(previous_jobs)
        previous_jobs, previous_machines = previous_jobs[order], previous_machines[order]
        slot = np.minimum(
            np.searchsorted(previous_jobs, job_ids), previous_jobs.size - 1
        )
        known = previous_jobs[slot] == job_ids
        planned_machine = np.where(known, previous_machines[slot], -1)

        column_order = np.argsort(machine_ids)
        sorted_machine_ids = machine_ids[column_order]
        slot = np.minimum(
            np.searchsorted(sorted_machine_ids, planned_machine),
            sorted_machine_ids.size - 1,
        )
        alive = known & (sorted_machine_ids[slot] == planned_machine)
        return np.where(alive, column_order[slot], -1).astype(np.int64)

    def _warm_population(
        self, instance: SchedulingInstance, plan: np.ndarray, gen: np.random.Generator
    ) -> np.ndarray:
        """The activation's initial population plus offspring scratch rows.

        Row 0 is the warm plan verbatim; a ``warm_fraction`` share of the
        mesh holds perturbed copies of it; the rest is uniform random (the
        exploration share).  Scratch rows are placeholders (they are staged
        over before ever being read).
        """
        cfg = self.config
        warm = self.warm_start
        population = cfg.population_size
        scratch = max(cfg.nb_recombinations, cfg.nb_mutations)
        rows = np.tile(plan, (population + scratch, 1))
        warm_rows = max(1, int(round(warm.warm_fraction * population)))
        if warm_rows > 1:
            rows[1:warm_rows] = perturbed_copies(
                plan, warm_rows - 1, instance.nb_machines, warm.perturbation_rate, gen
            )
        if warm_rows < population:
            rows[warm_rows:population] = gen.integers(
                0, instance.nb_machines, size=(population - warm_rows, instance.nb_jobs)
            )
        return rows

    def _acquire_batch(
        self, instance: SchedulingInstance, rows: np.ndarray
    ) -> BatchEvaluator:
        """Reseat the resident buffers on this activation's batch (grow-only)."""
        weight = self.config.fitness_weight
        if self._batch is None:
            self._batch = BatchEvaluator(instance, rows, weight=weight)
            self.stats.capacity_reallocations += 1
            self._m_reallocations.inc()
            return self._batch
        reused = self._batch.reseat(
            instance,
            rows,
            min_jobs=int(math.ceil(instance.nb_jobs * self.warm_start.capacity_slack)),
        )
        if not reused:
            self.stats.capacity_reallocations += 1
            self._m_reallocations.inc()
        return self._batch

    # ------------------------------------------------------------------ #
    # One activation
    # ------------------------------------------------------------------ #
    def schedule(self, instance: SchedulingInstance, rng: RNGLike = None) -> np.ndarray:
        """Schedule one activation's batch, warm-starting from the last plan."""
        self.stats.activations += 1
        gen = as_generator(rng)
        timer = PhaseTimer()
        self.last_phases = timer.durations
        if not self.warm_start.enabled:
            self._m_batches["cold"].inc()
            with timer.phase("evaluate"):
                return self._cold.schedule(instance, gen)

        fallback = degenerate_assignment(instance, self.config, gen)
        if fallback is not None:
            self.stats.degenerate_batches += 1
            self.stats.degenerate_jobs += instance.nb_jobs
            self._m_batches["degenerate"].inc()
            self._m_jobs["degenerate"].inc(instance.nb_jobs)
            self._remember(instance, fallback)
            return fallback

        with timer.phase("warm_remap"):
            plan, carried = self.warm_assignment(instance, gen)
        nb_carried = int(carried.sum())
        self.stats.carried_jobs += nb_carried
        self.stats.filled_jobs += instance.nb_jobs - nb_carried
        self._m_batches["warm"].inc()
        self._m_jobs["carried"].inc(nb_carried)
        self._m_jobs["filled"].inc(instance.nb_jobs - nb_carried)

        cfg = self.config
        with timer.phase("warm_remap"):
            batch = self._acquire_batch(
                instance, self._warm_population(instance, plan, gen)
            )
        with timer.phase("evaluate"):
            grid = ResidentGrid(
                cfg.population_height,
                cfg.population_width,
                batch,
                self._evaluator,
                scratch_rows=max(cfg.nb_recombinations, cfg.nb_mutations),
            )
            engine = EvaluationEngine(
                instance,
                cfg.fitness_weight,
                evaluator=self._evaluator,
                registry=self._registry,
            )
            algorithm = CellularMemeticAlgorithm(instance, cfg, rng=gen, engine=engine)
            algorithm.start(
                grid=grid, initial_local_search=self.warm_start.initial_local_search
            )
            while algorithm.should_continue():
                algorithm.step()
            result = algorithm.finish()
        self.stats.evaluations = int(self._evaluator.evaluations)
        assignment = np.array(result.best_schedule.assignment, dtype=np.int64)
        self._remember(instance, assignment)
        return assignment

    def degraded_schedule(
        self, instance: SchedulingInstance, rng: RNGLike = None
    ) -> np.ndarray:
        """Schedule one batch through the Min-Min fallback, skipping the cMA.

        The live service (:mod:`repro.service`) calls this instead of
        :meth:`schedule` while its overload state machine is degraded: under
        a backlog spike, the constructive heuristic's bounded per-batch cost
        beats the cMA's quality edge.  The outcome is still remembered as
        the current plan, so the warm start stays coherent when the service
        recovers and the cMA resumes from the degraded plan rather than from
        scratch.
        """
        self.stats.activations += 1
        self.stats.degraded_batches += 1
        self.stats.degraded_jobs += instance.nb_jobs
        self._m_batches["degraded"].inc()
        self._m_jobs["degraded"].inc(instance.nb_jobs)
        gen = as_generator(rng)
        timer = PhaseTimer()
        self.last_phases = timer.durations
        with timer.phase("evaluate"):
            fallback = degenerate_assignment(instance, self.config, gen)
            if fallback is not None:
                assignment = fallback
            else:
                schedule = build_schedule("min_min", instance, gen)
                assignment = np.array(schedule.assignment, dtype=np.int64)
        self._remember(instance, assignment)
        return assignment

    def _remember(self, instance: SchedulingInstance, assignment: np.ndarray) -> None:
        """Replace the remembered plan with this activation's outcome.

        The plan is replaced wholesale (not merged): jobs absent from this
        batch were either committed — they never come back — or will be
        resubmitted after a machine departure, in which case their stale
        entry would be dropped by the remap anyway.
        """
        job_ids = instance.metadata.get("job_ids")
        machine_ids = instance.metadata.get("machine_ids")
        if job_ids is None or machine_ids is None:
            self._plan = {}
            return
        machine_ids = np.asarray(machine_ids)
        self._plan = {
            int(job_id): int(machine_ids[column])
            for job_id, column in zip(job_ids, assignment)
        }


#: Sentinel distinguishing "argument omitted" from an explicit value.
_UNSET = object()


class WarmCMAPolicy(BatchSchedulingPolicy):
    """The :class:`DynamicSchedulerService` as a batch scheduling policy.

    Mirrors :class:`~repro.grid.scheduler.CMABatchPolicy`'s constructor so
    cold and warm policies are interchangeable in simulations; pass
    ``service=`` to share one warm state between several callers instead
    (exclusively — an existing service keeps its own configuration and
    budget, so combining it with any other argument is rejected).
    """

    name = "warm-cma"

    def __init__(
        self,
        config: CMAConfig | None = None,
        warm_start: WarmStartConfig | None = None,
        *,
        service: DynamicSchedulerService | None = None,
        max_seconds: float = _UNSET,  # type: ignore[assignment]
        max_iterations: int | None = _UNSET,  # type: ignore[assignment]
        max_stagnant_iterations: int | None = _UNSET,  # type: ignore[assignment]
    ) -> None:
        budget = {
            name: value
            for name, value in (
                ("max_seconds", max_seconds),
                ("max_iterations", max_iterations),
                ("max_stagnant_iterations", max_stagnant_iterations),
            )
            if value is not _UNSET
        }
        if service is not None:
            if config is not None or warm_start is not None or budget:
                raise ValueError(
                    "pass either an existing service or the configuration and "
                    "budget to build one, not both"
                )
            self.service = service
        else:
            self.service = DynamicSchedulerService(config, warm_start, **budget)

    def schedule(self, instance: SchedulingInstance, rng: RNGLike = None) -> np.ndarray:
        return self.service.schedule(instance, rng)

    @property
    def last_phases(self) -> dict[str, float]:
        """The service's phase split of the most recent activation."""
        return self.service.last_phases
