"""Tests for the dynamic cMA scheduling service.

Covers the correctness properties the service promises:

* warm-started plans stay valid assignments when machines churn between
  activations (the id remap drops departed machines);
* cold (``warm=False``) the service reproduces the cold-start cMA
  trajectory, pinned by value;
* the resident buffers are grow-only and never leak rows between
  activations (a smaller batch after a larger one reuses capacity and its
  caches are exact).
"""

import numpy as np
import pytest

from repro.core.config import CMAConfig, TraceConfig
from repro.engine.batch import BatchEvaluator
from repro.grid import (
    DynamicSchedulerService,
    GridJob,
    GridMachine,
    GridSimulator,
    HeuristicBatchPolicy,
    SimulationConfig,
    WarmCMAPolicy,
)
from repro.heuristics.base import build_schedule
from repro.model.instance import SchedulingInstance
from repro.traces import generate_trace


def batch_instance(job_ids, machine_ids, rng_seed=5, name="batch"):
    """A batch instance with stable-id metadata, like the simulator builds."""
    gen = np.random.default_rng(rng_seed)
    etc = gen.uniform(1.0, 10.0, size=(len(job_ids), len(machine_ids)))
    return SchedulingInstance(
        etc=etc,
        name=name,
        metadata={
            "job_ids": np.asarray(job_ids, dtype=np.int64),
            "machine_ids": np.asarray(machine_ids, dtype=np.int64),
        },
    )


def small_budget_service():
    return DynamicSchedulerService(
        CMAConfig.fast_defaults(), max_seconds=5.0, max_iterations=3
    )


class TestWarmAssignment:
    def test_carries_previous_plan_through_stable_ids(self):
        service = small_budget_service()
        first = batch_instance(job_ids=[10, 11, 12, 13], machine_ids=[0, 1, 2])
        assignment = service.schedule(first, rng=1)
        assert assignment.shape == (4,)

        # Same jobs still pending, machines reordered: the warm plan must
        # follow the ids, not the columns.
        second = batch_instance(job_ids=[10, 11, 12, 13], machine_ids=[2, 0, 1])
        plan, carried = service.warm_assignment(second, rng=2)
        assert carried.all()
        machine_ids_second = [2, 0, 1]
        previous = service.plan
        for row, job_id in enumerate([10, 11, 12, 13]):
            assert machine_ids_second[int(plan[row])] == previous[job_id]

    def test_machine_churn_drops_departed_machines(self):
        service = small_budget_service()
        first = batch_instance(job_ids=[0, 1, 2, 3, 4], machine_ids=[0, 1, 2])
        service.schedule(first, rng=1)
        previous = service.plan

        # Machine 1 left the grid; a new machine 7 joined.
        surviving = [0, 2, 7]
        second = batch_instance(job_ids=[0, 1, 2, 3, 4, 99], machine_ids=surviving)
        plan, carried = service.warm_assignment(second, rng=2)

        assert plan.min() >= 0 and plan.max() < second.nb_machines
        for row, job_id in enumerate([0, 1, 2, 3, 4]):
            if previous[job_id] in surviving:
                assert carried[row]
                assert surviving[int(plan[row])] == previous[job_id]
            else:
                assert not carried[row]
        # The brand-new job has no plan entry to carry.
        assert not carried[5]

    def test_without_metadata_everything_is_filled(self):
        service = small_budget_service()
        instance = SchedulingInstance(
            etc=np.random.default_rng(3).uniform(1.0, 5.0, size=(6, 3)), name="anon"
        )
        plan, carried = service.warm_assignment(instance, rng=1)
        assert not carried.any()
        assert plan.min() >= 0 and plan.max() < 3

    def test_fill_matches_configured_heuristic_on_fresh_batches(self):
        service = small_budget_service()
        instance = batch_instance(job_ids=[1, 2, 3, 4, 5], machine_ids=[0, 1, 2])
        plan, carried = service.warm_assignment(instance, rng=1)
        assert not carried.any()
        reference = build_schedule("mct", instance)
        np.testing.assert_array_equal(plan, np.asarray(reference.assignment))


class TestOffModeTrajectory:
    def test_off_mode_identical_to_cold_policy(self):
        """The cold policy's trajectory, pinned by value.

        The literals were recorded with the standalone cold-start cMA
        policy this mode replaced (three identical runs); the iteration
        budget binds long before the wall clock, so they do not depend on
        the machine.
        """
        # The recorded stream, from raw draws: Poisson arrivals at 0.8/s up
        # to 30 s, then lo-heterogeneity sizes from the same generator, and
        # three lo-heterogeneity machines from a fresh one on the same seed.
        gen = np.random.default_rng(6)
        arrivals = []
        time = 0.0
        while True:
            time += float(gen.exponential(1.0 / 0.8))
            if time > 30.0:
                break
            arrivals.append(time)
        sizes = gen.uniform(1.0, 100.0, len(arrivals)) * 1e3
        jobs = [
            GridJob(job_id, float(size), arrival)
            for job_id, (arrival, size) in enumerate(zip(arrivals, sizes))
        ]
        mips = np.random.default_rng(6).uniform(1.0, 10.0, 3) * 10.0
        machines = [GridMachine(machine_id, float(m)) for machine_id, m in enumerate(mips)]
        assert len(jobs) == 29
        cold = GridSimulator(
            jobs,
            machines,
            WarmCMAPolicy(warm=False, max_seconds=10.0, max_iterations=3),
            SimulationConfig(activation_interval=10.0),
            rng=6,
        ).run()

        assert cold.policy == "cma"
        assert cold.makespan == 10657.696461124831
        assert cold.total_flowtime == 157047.8265358629
        assert cold.mean_response_time == 5415.4422943401
        assert [a.batch_makespan for a in cold.activations] == [
            4524.349423523878,
            7910.502871967034,
            10627.696461124831,
        ]
        assert [a.scheduled_jobs for a in cold.activations] == [12, 9, 8]


class TestGrowOnlyCapacity:
    def test_capacity_grows_once_and_is_reused(self):
        service = small_budget_service()
        big = batch_instance(job_ids=list(range(40)), machine_ids=[0, 1, 2, 3], name="big")
        service.schedule(big, rng=1)
        capacity = (
            service.batch.row_capacity,
            service.batch.job_capacity,
            service.batch.machine_capacity,
        )
        reallocations = service.stats.capacity_reallocations

        small = batch_instance(job_ids=list(range(100, 110)), machine_ids=[0, 1], name="small")
        service.schedule(small, rng=2)
        assert service.stats.capacity_reallocations == reallocations
        assert (
            service.batch.row_capacity,
            service.batch.job_capacity,
            service.batch.machine_capacity,
        ) == capacity

        bigger = batch_instance(
            job_ids=list(range(200, 280)), machine_ids=[0, 1, 2, 3, 4], name="bigger"
        )
        service.schedule(bigger, rng=3)
        assert service.stats.capacity_reallocations == reallocations + 1
        assert service.batch.job_capacity >= 80

    def test_reused_rows_never_leak_between_activations(self):
        service = small_budget_service()
        big = batch_instance(job_ids=list(range(30)), machine_ids=[0, 1, 2, 3], name="big")
        service.schedule(big, rng=1)

        small = batch_instance(job_ids=[7, 8, 9], machine_ids=[0, 1], name="small")
        service.schedule(small, rng=2)
        # Degenerate batches bypass the resident engine; this one must not.
        assert service.batch.instance is small
        assert service.batch.nb_jobs == 3
        # Every cached matrix must match a from-scratch evaluation of the
        # reused rows: stale content from the big activation would fail.
        service.batch.validate()

    def test_population_shape_tracks_each_batch(self):
        service = small_budget_service()
        config = service.config
        rows = config.population_size + max(
            config.nb_recombinations, config.nb_mutations
        )
        first = batch_instance(job_ids=list(range(12)), machine_ids=[0, 1, 2])
        service.schedule(first, rng=1)
        assert service.batch.population_size == rows
        assert service.batch.nb_jobs == 12

        second = batch_instance(job_ids=list(range(50, 55)), machine_ids=[0, 1, 2])
        service.schedule(second, rng=2)
        assert service.batch.population_size == rows
        assert service.batch.nb_jobs == 5


class TestDegenerateBatches:
    def test_single_machine_shortcut(self):
        service = small_budget_service()
        instance = SchedulingInstance(
            etc=np.arange(1.0, 6.0).reshape(5, 1),
            metadata={
                "job_ids": np.arange(5, dtype=np.int64),
                "machine_ids": np.array([3], dtype=np.int64),
            },
        )
        assignment = service.schedule(instance, rng=1)
        assert assignment.tolist() == [0] * 5
        assert service.stats.degenerate_batches == 1
        # The plan is still remembered so follow-up batches can carry it.
        assert service.plan == {job: 3 for job in range(5)}

    def test_tiny_batch_falls_back_to_min_min(self):
        service = small_budget_service()
        instance = batch_instance(job_ids=[42], machine_ids=[0, 1, 2])
        assignment = service.schedule(instance, rng=1)
        reference = build_schedule("min_min", instance)
        np.testing.assert_array_equal(assignment, np.asarray(reference.assignment))
        assert service.stats.degenerate_batches == 1


class TestWarmPolicyEndToEnd:
    def test_rolling_horizon_simulation_completes_with_churn(self):
        jobs = generate_trace(
            TraceConfig(duration=30.0, rate=1.0, nb_machines=3, job_heterogeneity="lo"),
            seed=9,
        ).jobs
        machines = [
            GridMachine(machine_id=0, mips=40.0),
            GridMachine(machine_id=1, mips=30.0),
            GridMachine(machine_id=2, mips=30.0, leave_time=25.0),
        ]
        policy = WarmCMAPolicy(
            CMAConfig.fast_defaults(), max_seconds=5.0, max_iterations=3
        )
        metrics = GridSimulator(
            jobs,
            machines,
            policy,
            SimulationConfig(activation_interval=10.0, commit_horizon=10.0),
            rng=9,
        ).run()
        assert metrics.completed_jobs == len(jobs)
        assert metrics.policy == "warm-cma"
        stats = policy.service.stats
        assert stats.activations == metrics.nb_activations


class TestRollingHorizonSimulator:
    def test_horizon_defers_late_starts(self):
        # Two equal jobs on one slow machine: with a 5-second horizon only
        # the job starting inside the first window is committed at t=0.
        jobs = [GridJob(0, 100.0, 0.0), GridJob(1, 100.0, 0.0)]
        machines = [GridMachine(0, mips=10.0)]
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=5.0, commit_horizon=5.0),
            rng=1,
        )
        metrics = simulator.run()
        assert metrics.completed_jobs == 2
        first = simulator.activations[0]
        assert first.pending_jobs == 2
        assert first.scheduled_jobs == 1

    def test_horizon_stream_matches_full_commit_for_single_jobs(self):
        # With one job per activation the horizon changes nothing.
        jobs = [GridJob(i, 50.0, 12.0 * i) for i in range(4)]
        machines = [GridMachine(0, mips=10.0), GridMachine(1, mips=10.0)]
        full = GridSimulator(
            jobs, machines, HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=12.0), rng=1,
        ).run()
        rolling = GridSimulator(
            jobs, machines, HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=12.0, commit_horizon=12.0), rng=1,
        ).run()
        assert rolling.makespan == full.makespan
        assert rolling.completed_jobs == full.completed_jobs

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(commit_horizon=0.0)


class TestReseatEngine:
    def test_reseat_reuses_and_grows(self, tiny_instance, small_instance):
        batch = BatchEvaluator.random(small_instance, 8, rng=1)
        assert batch.row_capacity == 8
        assignments = np.random.default_rng(2).integers(
            0, tiny_instance.nb_machines, size=(6, tiny_instance.nb_jobs)
        )
        reused = batch.reseat(tiny_instance, assignments)
        assert reused
        assert batch.instance is tiny_instance
        assert batch.population_size == 6
        reference = BatchEvaluator(tiny_instance, assignments)
        np.testing.assert_allclose(batch.completion_times, reference.completion_times)
        np.testing.assert_allclose(batch.fitnesses(), reference.fitnesses())

        grown = np.random.default_rng(3).integers(
            0, small_instance.nb_machines, size=(20, small_instance.nb_jobs)
        )
        reused = batch.reseat(small_instance, grown, min_rows=32)
        assert not reused
        assert batch.row_capacity == 32
        batch.validate()

    def test_reseat_rejects_bad_shapes(self, tiny_instance, small_instance):
        batch = BatchEvaluator.random(small_instance, 4, rng=1)
        with pytest.raises(ValueError):
            batch.reseat(tiny_instance, np.zeros((4, small_instance.nb_jobs), dtype=int))
        with pytest.raises(ValueError):
            batch.reseat(
                tiny_instance,
                np.full((4, tiny_instance.nb_jobs), tiny_instance.nb_machines),
            )


class TestServiceReset:
    def test_reset_forgets_cross_simulation_state(self):
        service = DynamicSchedulerService(
            CMAConfig.fast_defaults(), max_seconds=30.0, max_iterations=2
        )
        instance = batch_instance([0, 1, 2, 3], [0, 1], rng_seed=9)
        service.schedule(instance, rng=1)
        assert service.plan
        assert service.batch is not None
        assert service.stats.activations == 1
        held = service.stats  # as a wrapper built around the service would

        service.reset()
        assert service.plan == {}
        assert service.batch is None
        assert service.stats.activations == 0 == held.activations
        service.schedule(instance, rng=2)
        assert held.activations == 1 and held.warm_batches == 1

    def test_reset_service_replays_like_a_fresh_one(self):
        """reset() is equivalent to building a new service (same seed, same plan)."""
        config = CMAConfig.fast_defaults()
        instance = batch_instance([0, 1, 2, 3, 4, 5], [0, 1, 2], rng_seed=11)
        budget = dict(max_seconds=30.0, max_iterations=3)

        reused = DynamicSchedulerService(config, **budget)
        reused.schedule(instance, rng=np.random.default_rng(7))  # leaves state behind
        reused.reset()
        replayed = reused.schedule(instance, rng=np.random.default_rng(7))

        fresh = DynamicSchedulerService(config, **budget)
        reference = fresh.schedule(instance, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(replayed, reference)
        # Evaluations included: reset() must not keep the old counter.
        assert reused.stats == fresh.stats
