"""Batch/scalar parity: the engine must agree with ``Schedule`` exactly.

Property-style tests asserting that :class:`~repro.engine.BatchEvaluator`
completion times, makespans, flowtimes, fitness and move scores match
``Schedule.validate()``-checked scalar results to 1e-9 over randomized
instances and randomized move/swap sequences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchEvaluator, scan
from repro.model.fitness import FitnessEvaluator
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule, spt_flowtime

TOL = 1e-9


def random_instance(seed: int, nb_jobs: int = 24, nb_machines: int = 6) -> SchedulingInstance:
    rng = np.random.default_rng(seed)
    return SchedulingInstance(
        etc=rng.uniform(1.0, 300.0, size=(nb_jobs, nb_machines)),
        ready_times=rng.uniform(0.0, 25.0, size=nb_machines),
        name=f"parity-{seed}",
    )


def reference_schedules(batch: BatchEvaluator) -> list[Schedule]:
    """Freshly recomputed scalar schedules for every row (validated)."""
    schedules = [Schedule(batch.instance, row) for row in batch.assignments]
    for schedule in schedules:
        schedule.validate()
    return schedules


def assert_batch_matches_scalar(batch: BatchEvaluator) -> None:
    schedules = reference_schedules(batch)
    for row, schedule in enumerate(schedules):
        np.testing.assert_allclose(
            batch.completion_times[row], schedule.completion_times, atol=TOL, rtol=0
        )
        assert batch.makespans()[row] == pytest.approx(schedule.makespan, abs=TOL)
        assert batch.flowtimes()[row] == pytest.approx(schedule.flowtime, abs=TOL)
        assert batch.mean_flowtimes()[row] == pytest.approx(
            schedule.mean_flowtime, abs=TOL
        )


@pytest.mark.parametrize("seed", range(6))
def test_batch_recompute_matches_scalar(seed):
    instance = random_instance(seed)
    rng = np.random.default_rng(seed + 100)
    batch = BatchEvaluator.random(instance, population_size=17, rng=rng)
    assert_batch_matches_scalar(batch)


@pytest.mark.parametrize("seed", range(4))
def test_batch_fitness_matches_scalarized_objectives(seed):
    instance = random_instance(seed)
    evaluator = FitnessEvaluator(weight=0.75)
    batch = BatchEvaluator.random(instance, 9, rng=seed, weight=evaluator.weight)
    for row, schedule in enumerate(reference_schedules(batch)):
        expected = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        assert batch.fitnesses()[row] == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("seed", range(4))
def test_randomized_move_swap_sequences_keep_parity(seed):
    """Apply the same random move/swap stream to batch row views and scalar twins."""
    instance = random_instance(seed, nb_jobs=18, nb_machines=5)
    rng = np.random.default_rng(seed + 7)
    batch = BatchEvaluator.random(instance, 6, rng=rng)
    twins = [batch.schedule(row) for row in range(len(batch))]

    for _ in range(120):
        row = int(rng.integers(len(batch)))
        if rng.random() < 0.5:
            job = int(rng.integers(instance.nb_jobs))
            machine = int(rng.integers(instance.nb_machines))
            batch.view(row).move_job(job, machine)
            twins[row].move_job(job, machine)
        else:
            job_a, job_b = (int(j) for j in rng.integers(instance.nb_jobs, size=2))
            batch.view(row).swap_jobs(job_a, job_b)
            twins[row].swap_jobs(job_a, job_b)

    batch.validate()
    for row, twin in enumerate(twins):
        twin.validate()
        assert np.array_equal(batch.assignments[row], twin.assignment)
        np.testing.assert_allclose(
            batch.completion_times[row], twin.completion_times, atol=TOL, rtol=0
        )
        assert batch.flowtimes()[row] == pytest.approx(twin.flowtime, abs=TOL)


@pytest.mark.parametrize("seed", range(4))
def test_score_moves_matches_makespan_if_moved(seed):
    instance = random_instance(seed, nb_jobs=14, nb_machines=5)
    batch = BatchEvaluator.random(instance, 3, rng=seed)
    for row in range(len(batch)):
        schedule = Schedule(instance, batch.assignments[row])
        (scores,) = batch.score_moves_batch([row])
        for job in range(instance.nb_jobs):
            for machine in range(instance.nb_machines):
                if machine == int(schedule.assignment[job]):
                    assert np.isinf(scores[job, machine])
                else:
                    assert scores[job, machine] == pytest.approx(
                        schedule.makespan_if_moved(job, machine), abs=TOL
                    )


def brute_force_move_makespan(schedule: Schedule, job: int, machine: int) -> float:
    moved = schedule.copy()
    moved.move_job(job, machine)
    return moved.makespan


@pytest.mark.parametrize("seed", range(3))
def test_what_if_helpers_match_brute_force(seed):
    """The O(1) cached top-3 what-ifs equal full recomputation."""
    instance = random_instance(seed, nb_jobs=12, nb_machines=4)
    rng = np.random.default_rng(seed)
    schedule = Schedule.random(instance, rng=rng)
    for _ in range(40):
        job = int(rng.integers(instance.nb_jobs))
        machine = int(rng.integers(instance.nb_machines))
        assert schedule.makespan_if_moved(job, machine) == pytest.approx(
            brute_force_move_makespan(schedule, job, machine), abs=TOL
        )
        job_b = int(rng.integers(instance.nb_jobs))
        swapped = schedule.copy()
        swapped.swap_jobs(job, job_b)
        assert schedule.makespan_if_swapped(job, job_b) == pytest.approx(
            swapped.makespan, abs=TOL
        )
        # Mutate between queries so the lazy cache is exercised across states.
        schedule.move_job(job, machine)
    schedule.validate()


def test_scan_for_job_matches_full_scan():
    """The SLM scan of each job equals that job's slab of the full scan."""
    instance = random_instance(11, nb_jobs=16, nb_machines=6)
    schedule = Schedule.random(instance, rng=3)
    (full,) = scan.score_all_moves_batch(
        instance.etc, schedule.assignment[None, :], schedule.completion_times[None, :]
    )
    # One row per job: the schedule repeated, each row moving its own job.
    jobs = np.arange(instance.nb_jobs)
    per_job = scan.score_moves_for_jobs_batch(
        instance.etc,
        np.repeat(schedule.assignment[None, :], jobs.size, axis=0),
        np.repeat(schedule.completion_times[None, :], jobs.size, axis=0),
        jobs,
    )
    np.testing.assert_allclose(per_job, full, atol=TOL, rtol=0)


def test_view_is_zero_copy_and_consistent():
    instance = random_instance(5)
    batch = BatchEvaluator.random(instance, 4, rng=2)
    view = batch.view(1)
    view.validate()
    view.move_job(0, int((view.assignment[0] + 1) % instance.nb_machines))
    # The mutation through the view is visible in the batch matrices...
    batch.validate()
    assert batch.assignments[1][0] == view.assignment[0]
    # ...and detached copies do not alias the batch.
    detached = batch.schedule(2)
    detached.move_job(0, int((detached.assignment[0] + 1) % instance.nb_machines))
    assert batch.assignments[2][0] != detached.assignment[0]
    batch.validate()


def test_set_rows_and_subset_recompute():
    instance = random_instance(9)
    batch = BatchEvaluator.random(instance, 5, rng=4)
    replacement = np.zeros(instance.nb_jobs, dtype=np.int64)
    batch.set_rows([3], replacement[None, :])
    assert np.array_equal(batch.assignments[3], replacement)
    assert_batch_matches_scalar(batch)


@pytest.mark.parametrize("seed", range(6))
def test_batched_machine_flowtimes_agree_with_spt_flowtime_to_rounding(seed):
    """The batched per-machine flowtime kernel is ``spt_flowtime`` to
    within 1e-12 relative — not bit for bit: the masked whole-row sum groups
    its additions differently, so moves that must match ``Schedule``
    exactly (the rebalance mutation) reduce as ``TestExactMove`` checks."""
    rng = np.random.default_rng(seed + 300)
    instance = random_instance(seed, int(rng.integers(5, 80)), int(rng.integers(2, 17)))
    batch = BatchEvaluator.random(instance, population_size=5, rng=rng)
    rows = np.repeat(np.arange(5), instance.nb_machines)
    machines = np.tile(np.arange(instance.nb_machines), 5)
    batched = batch._flowtimes_of_machines(rows, machines)
    scalar = [
        spt_flowtime(instance, np.asarray(batch.assignments[row]), machine)
        for row, machine in zip(rows.tolist(), machines.tolist())
    ]
    np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=0)


def test_single_machine_and_single_row_edges():
    etc = np.arange(1.0, 7.0).reshape(6, 1)
    instance = SchedulingInstance(etc=etc)
    batch = BatchEvaluator(instance, np.zeros((1, 6), dtype=np.int64))
    schedule = Schedule(instance)
    assert batch.makespans()[0] == pytest.approx(schedule.makespan, abs=TOL)
    assert batch.flowtimes()[0] == pytest.approx(schedule.flowtime, abs=TOL)
    scores = batch.score_moves_batch([0])
    assert scores.shape == (1, 6, 1) and np.all(np.isinf(scores))


def test_invalid_assignments_rejected():
    instance = random_instance(1)
    with pytest.raises(ValueError):
        BatchEvaluator(instance, np.zeros((2, instance.nb_jobs + 1), dtype=np.int64))
    with pytest.raises(ValueError):
        BatchEvaluator(
            instance, np.full((2, instance.nb_jobs), instance.nb_machines, dtype=np.int64)
        )


class TestExactMove:
    """``BatchEvaluator.move_jobs`` lands on ``Schedule.move_job``'s bits.

    Each row's move is compared with ``==`` against the same move made
    through the row's view in a twin batch.  Row *k* puts *k* jobs on
    machine 0 before its move, so the moved machines hold 0 to 141 jobs,
    across numpy's sequential sums below 8 elements and its pairwise blocks
    of 8 and of 128.
    """

    NB_JOBS, NB_MACHINES = 150, 3

    @staticmethod
    def instance(integer: bool, ready: bool) -> SchedulingInstance:
        rng = np.random.default_rng(17)
        shape = (TestExactMove.NB_JOBS, TestExactMove.NB_MACHINES)
        etc = rng.integers(1, 40, size=shape).astype(float) if integer else rng.uniform(
            1.0, 300.0, size=shape
        )
        ready_times = rng.uniform(0.0, 900.0, size=shape[1]) if ready else None
        return SchedulingInstance(etc=etc, ready_times=ready_times)

    @pytest.mark.parametrize("integer", [False, True], ids=["real", "integer"])
    @pytest.mark.parametrize("ready", [False, True], ids=["no-ready", "ready"])
    def test_matches_move_job_through_views(self, integer, ready):
        instance = self.instance(integer, ready)
        rng = np.random.default_rng(5)
        counts = np.arange(141)
        assignments = rng.integers(1, self.NB_MACHINES, size=(counts.size, self.NB_JOBS))
        jobs = np.empty_like(counts)
        machines = np.zeros_like(counts)
        # Odd rows move a job off machine 0, even rows move one onto it.
        for row, count in enumerate(counts.tolist()):
            order = rng.permutation(self.NB_JOBS)
            assignments[row, order[:count]] = 0
            jobs[row] = order[0] if count % 2 else order[count]
            machines[row] = rng.integers(1, self.NB_MACHINES) if count % 2 else 0
        # Every seventh row moves its job to the machine it is on: no change.
        own = counts % 7 == 3
        machines[own] = assignments[counts[own], jobs[own]]
        batch = BatchEvaluator(instance, assignments)
        twin = BatchEvaluator(instance, assignments)
        before = batch.assignments.copy()

        batch.move_jobs(counts, jobs, machines)
        for row, job, machine in zip(counts.tolist(), jobs.tolist(), machines.tolist()):
            twin.view(row).move_job(job, machine)

        np.testing.assert_array_equal(batch.assignments, twin.assignments)
        np.testing.assert_array_equal(batch.completion_times, twin.completion_times)
        np.testing.assert_array_equal(batch.machine_flowtimes, twin.machine_flowtimes)
        moved = before[counts, jobs] != machines
        assert moved.sum() == 121 and not np.array_equal(before, batch.assignments)
        held = (batch.assignments == 0).sum(axis=1)
        assert held.min() == 0 and held.max() == 141

    def test_exact_flowtimes_equal_spt_flowtime(self):
        # The reduction alone, on every machine of rows holding 0 to 140 jobs.
        instance = self.instance(False, True)
        rng = np.random.default_rng(8)
        assignments = rng.integers(1, self.NB_MACHINES, size=(141, self.NB_JOBS))
        for count in range(141):
            assignments[count, rng.permutation(self.NB_JOBS)[:count]] = 0
        batch = BatchEvaluator(instance, assignments)
        rows = np.repeat(np.arange(141), self.NB_MACHINES)
        machines = np.tile(np.arange(self.NB_MACHINES), 141)
        exact = batch._exact_flowtimes_of_machines(rows, machines)
        scalar = [
            spt_flowtime(instance, assignments[row], machine)
            for row, machine in zip(rows.tolist(), machines.tolist())
        ]
        np.testing.assert_array_equal(exact, scalar)

    def test_no_move_and_empty_rows_change_nothing(self):
        instance = random_instance(3)
        batch = BatchEvaluator.random(instance, population_size=3, rng=1)

        def state():
            return batch.assignments, batch.completion_times, batch.machine_flowtimes

        snapshot = [matrix.copy() for matrix in state()]
        batch.move_jobs([], [], [])
        batch.move_jobs([0, 2], [4, 7], batch.assignments[[0, 2], [4, 7]])
        for before, after in zip(snapshot, state()):
            np.testing.assert_array_equal(before, after)
