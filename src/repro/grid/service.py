"""The dynamic cMA scheduler: one persistent, engine-resident cMA.

The paper's deployment claim (Sections 1 and 6) is that the cMA runs "in
batch mode for a very short time" whenever the simulator's activation
driver fires a ``SCHEDULER_TICK`` (periodically or adaptively — see
:class:`~repro.core.config.ActivationPolicy`).  Read literally, every
activation pays a full cold start — a fresh engine, a fresh heuristic seed,
a fresh initial local-search pass over the whole mesh.  Consecutive
activations of a real grid overlap heavily (most pending jobs were pending
one activation ago), so almost all of that cold-start work re-derives
information the previous activation already had.  Sparser adaptive
activations only strengthen the case for keeping the engine warm: each
activation's batch is larger, so the reseat high-water mark is hit sooner
and amortized longer.

:class:`DynamicSchedulerService` is that one cMA batch scheduler.  Warm (the
default), it keeps exactly one cMA's worth of state alive across the whole
simulation:

* **capacity** — one :class:`~repro.engine.batch.BatchEvaluator` whose
  backing stores are grow-only (:meth:`~repro.engine.batch.BatchEvaluator.
  reseat`): an activation whose batch fits under the high-water mark reuses
  the resident rows, only a larger batch reallocates (padded by
  :data:`CAPACITY_SLACK`);
* **knowledge** — the previous activation's plan, remembered as a
  ``job_id → machine_id`` mapping.  At the next activation, jobs still
  pending keep their last assignment (remapped through the stable ids the
  simulator publishes in ``instance.metadata``, which drops machines that
  left the grid), unassigned jobs (new arrivals, orphans of departed
  machines) are placed by :data:`FILL_HEURISTIC` on top of the carried
  load, and only the remaining population rows are randomly seeded;
* **lifecycle** — each activation re-primes a
  :class:`~repro.core.population.ResidentGrid` over the resident batch and
  drives the standard ``start/step/should_continue/finish`` cMA lifecycle
  under the per-activation budget, skipping the initial whole-population
  local-search pass (the carried rows descend from an already-improved
  plan).

Cold (``warm=False``), it runs the literal reading instead: a fresh
:class:`~repro.core.cma.CellularMemeticAlgorithm` per activation, under the
same budget.

:class:`WarmCMAPolicy` exposes the service through the ordinary
:class:`~repro.grid.scheduler.BatchSchedulingPolicy` interface, so the
simulator, the CLI (``repro-scheduler simulate --policy cma|warm-cma``) and
the benchmarks treat both modes like any other policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.core.population import ResidentGrid
from repro.core.termination import TerminationCriteria
from repro.engine.batch import BatchEvaluator, perturbed_copies
from repro.engine.service import EvaluationEngine
from repro.grid.scheduler import BatchSchedulingPolicy, degenerate_assignment
from repro.heuristics.base import build_schedule
from repro.model.fitness import FitnessEvaluator
from repro.model.instance import SchedulingInstance
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.phases import PhaseTimer
from repro.utils.rng import RNGLike, as_generator

__all__ = ["ServiceStats", "DynamicSchedulerService", "WarmCMAPolicy"]

#: Heuristic placing jobs with no carried machine (arrivals, churn orphans).
FILL_HEURISTIC = "mct"
#: Share of the population seeded from the warm plan; the rest is random.
WARM_FRACTION = 0.5
#: Share of jobs moved at random in the perturbed copies of the warm plan.
PERTURBATION_RATE = 0.25
#: Job-dimension headroom whenever the resident buffers must grow.
CAPACITY_SLACK = 1.25
#: Algorithm 1's initial local-search pass: the carried rows do not need it.
INITIAL_LOCAL_SEARCH = False
#: Placement paths of ``repro_scheduler_jobs_total``: ``ServiceStats.<path>_jobs``.
JOB_PATHS = ("carried", "filled", "degenerate", "degraded")
#: Solving paths of ``repro_scheduler_batches_total``: ``ServiceStats.<path>_batches``.
BATCH_PATHS = ("warm", "cold", "degenerate", "degraded")


@dataclass
class ServiceStats:
    """Counters describing what the service reused across activations."""

    activations: int = 0
    #: Activations solved by a warm cMA run.
    warm_batches: int = 0
    #: Cold activations (a fresh cMA, or its degenerate fallback).
    cold_batches: int = 0
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
    #: Cumulative evaluations of the warm cMA runs (the shared evaluator's
    #: count; the ``activation`` line reports each run's change).
    evaluations: int = 0


class DynamicSchedulerService:
    """Runs the cMA at every scheduler activation, warm or cold.

    Parameters
    ----------
    config:
        Base cMA configuration; its termination criterion is replaced by the
        per-activation budget below.
    warm:
        ``True`` (default) keeps one engine-resident cMA alive and
        warm-starts each activation from the previous plan; ``False``
        cold-starts a fresh cMA per activation.
    max_seconds, max_iterations, max_stagnant_iterations:
        Per-activation budget: wall-clock seconds (the paper's "very short
        time"), an optional iteration cap (deterministic runs) and an
        optional stop after that many iterations without improvement.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` that reads
        :attr:`stats` (jobs and batches by path, buffer reallocations,
        engine evaluations) and the last warm run's evals/s; defaults to
        the no-op null registry.
    """

    def __init__(
        self,
        config: CMAConfig | None = None,
        *,
        warm: bool = True,
        max_seconds: float = 0.25,
        max_iterations: int | None = 50,
        max_stagnant_iterations: int | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        base = config if config is not None else CMAConfig.paper_defaults()
        self.config = base.evolve(
            termination=TerminationCriteria(
                max_seconds=max_seconds,
                max_iterations=max_iterations,
                max_stagnant_iterations=max_stagnant_iterations,
            )
        )
        self.warm = warm
        self.stats = ServiceStats()
        self._evaluator = FitnessEvaluator(self.config.fitness_weight)
        self._batch: BatchEvaluator | None = None
        self._plan: dict[int, int] = {}
        self._evals_per_second = 0.0
        reg = registry if registry is not None else NULL_REGISTRY
        reg.counter(
            "repro_scheduler_jobs_total",
            "Jobs planned by the warm scheduler, by placement path.",
            lambda: {(path,): getattr(self.stats, f"{path}_jobs") for path in JOB_PATHS},
            labels=("path",),
        )
        reg.counter(
            "repro_scheduler_batches_total",
            "Warm-scheduler activations, by solving path.",
            lambda: {(path,): getattr(self.stats, f"{path}_batches") for path in BATCH_PATHS},
            labels=("path",),
        )
        reg.counter(
            "repro_scheduler_reallocations_total",
            "Times the resident population buffers had to grow.",
            lambda: self.stats.capacity_reallocations,
        )
        reg.counter(
            "repro_engine_evaluations_total",
            "Schedule evaluations charged through the evaluation engine.",
            lambda: self.stats.evaluations,
        )
        reg.gauge(
            "repro_engine_evals_per_second",
            "Evaluation throughput of the engine's last finished run.",
            lambda: self._evals_per_second,
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
        """Forget all cross-simulation state (plan, buffers, evaluations, stats).

        A service carries knowledge *across activations of one simulation*;
        reusing the same service object for a second, unrelated simulation
        (a new trace replay, another repetition) would leak the first run's
        plan into the second's warm starts and skew any comparison.  Call
        ``reset()`` between runs — or build a fresh policy per run, which is
        what the replay arena's policy specs do.
        """
        self._plan = {}
        self._batch = None
        self._evaluator = FitnessEvaluator(self.config.fitness_weight)
        # Zeroed in place: wrappers and the live snapshot hold this object.
        vars(self.stats).update(vars(ServiceStats()))
        self._evals_per_second = 0.0
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
        job_ids = instance.metadata.get("job_ids")
        machine_ids = instance.metadata.get("machine_ids")
        plan = np.full(instance.nb_jobs, -1, dtype=np.int64)
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
            fill = build_schedule(FILL_HEURISTIC, sub_instance, rng)
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

        Row 0 is the warm plan verbatim; a :data:`WARM_FRACTION` share of
        the mesh holds perturbed copies of it; the rest is uniform random
        (the exploration share).  Scratch rows are placeholders (they are
        staged over before ever being read).
        """
        cfg = self.config
        population = cfg.population_size
        scratch = max(cfg.nb_recombinations, cfg.nb_mutations)
        rows = np.tile(plan, (population + scratch, 1))
        warm_rows = max(1, int(round(WARM_FRACTION * population)))
        if warm_rows > 1:
            rows[1:warm_rows] = perturbed_copies(
                plan, warm_rows - 1, instance.nb_machines, PERTURBATION_RATE, gen
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
        if self._batch is None:
            self._batch = BatchEvaluator(instance, rows, weight=self.config.fitness_weight)
            reused = False
        else:
            min_jobs = int(math.ceil(instance.nb_jobs * CAPACITY_SLACK))
            reused = self._batch.reseat(instance, rows, min_jobs=min_jobs)
        self.stats.capacity_reallocations += int(not reused)
        return self._batch

    # ------------------------------------------------------------------ #
    # One activation
    # ------------------------------------------------------------------ #
    def schedule(self, instance: SchedulingInstance, rng: RNGLike = None) -> np.ndarray:
        """Schedule one activation's batch, warm-starting from the last plan.

        Cold, the batch is solved by a fresh cMA (or the degenerate
        fallback) and nothing is remembered.
        """
        gen = as_generator(rng)
        timer = PhaseTimer()
        self.last_phases = timer.durations
        if not self.warm:
            self.stats.activations += 1
            self.stats.cold_batches += 1
            with timer.phase("evaluate"):
                fallback = degenerate_assignment(instance, self.config, gen)
                if fallback is not None:
                    return fallback
                result = CellularMemeticAlgorithm(instance, self.config, rng=gen).run()
            return np.array(result.best_schedule.assignment, dtype=np.int64)

        fallback = degenerate_assignment(instance, self.config, gen)
        self.stats.activations += 1
        if fallback is not None:
            self.stats.degenerate_batches += 1
            self.stats.degenerate_jobs += instance.nb_jobs
            self._remember(instance, fallback)
            return fallback

        with timer.phase("warm_remap"):
            plan, carried = self.warm_assignment(instance, gen)
            batch = self._acquire_batch(instance, self._warm_population(instance, plan, gen))
        nb_carried = int(carried.sum())
        self.stats.warm_batches += 1
        self.stats.carried_jobs += nb_carried
        self.stats.filled_jobs += instance.nb_jobs - nb_carried

        cfg = self.config
        with timer.phase("evaluate"):
            grid = ResidentGrid(
                cfg.population_height,
                cfg.population_width,
                batch,
                self._evaluator,
                scratch_rows=max(cfg.nb_recombinations, cfg.nb_mutations),
            )
            engine = EvaluationEngine(instance, cfg.fitness_weight, evaluator=self._evaluator)
            algorithm = CellularMemeticAlgorithm(instance, cfg, rng=gen, engine=engine)
            algorithm.start(grid=grid, initial_local_search=INITIAL_LOCAL_SEARCH)
            while algorithm.should_continue():
                algorithm.step()
            result = algorithm.finish()
        evaluations = int(self._evaluator.evaluations)
        if result.elapsed_seconds > 0:  # the evaluator counts across runs
            run = evaluations - self.stats.evaluations
            self._evals_per_second = run / result.elapsed_seconds
        self.stats.evaluations = evaluations
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
        gen = as_generator(rng)
        timer = PhaseTimer()
        self.last_phases = timer.durations
        with timer.phase("evaluate"):
            assignment = degenerate_assignment(instance, self.config, gen)
            if assignment is None:
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


class WarmCMAPolicy(BatchSchedulingPolicy):
    """The :class:`DynamicSchedulerService` as a batch scheduling policy.

    Named ``"warm-cma"``, or ``"cma"`` when cold (``warm=False``); the
    arguments are the service's.
    """

    def __init__(
        self,
        config: CMAConfig | None = None,
        *,
        warm: bool = True,
        max_seconds: float = 0.25,
        max_iterations: int | None = 50,
        max_stagnant_iterations: int | None = None,
    ) -> None:
        self.name = "warm-cma" if warm else "cma"
        self.service = DynamicSchedulerService(
            config,
            warm=warm,
            max_seconds=max_seconds,
            max_iterations=max_iterations,
            max_stagnant_iterations=max_stagnant_iterations,
        )

    def schedule(self, instance: SchedulingInstance, rng: RNGLike = None) -> np.ndarray:
        return self.service.schedule(instance, rng)

    @property
    def last_phases(self) -> dict[str, float]:
        """The service's phase split of the most recent activation."""
        return self.service.last_phases

    @property
    def stats(self) -> ServiceStats:
        """The service's cumulative counters (carried, filled, evaluations)."""
        return self.service.stats
