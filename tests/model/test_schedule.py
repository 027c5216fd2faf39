"""Tests for repro.model.schedule: objectives, incremental updates, views."""

import numpy as np
import pytest

from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule


@pytest.fixture
def handmade_instance():
    """A 4-job × 2-machine instance small enough to verify by hand."""
    etc = np.array(
        [
            [2.0, 4.0],
            [3.0, 1.0],
            [5.0, 5.0],
            [1.0, 2.0],
        ]
    )
    return SchedulingInstance(etc=etc, name="handmade")


class TestConstruction:
    def test_default_assignment_all_zero(self, handmade_instance):
        schedule = Schedule(handmade_instance)
        assert schedule.assignment.tolist() == [0, 0, 0, 0]

    def test_explicit_assignment(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 1, 0, 1])
        assert schedule.assignment.tolist() == [0, 1, 0, 1]

    def test_wrong_length_rejected(self, handmade_instance):
        with pytest.raises(ValueError):
            Schedule(handmade_instance, [0, 1])

    def test_out_of_range_machine_rejected(self, handmade_instance):
        with pytest.raises(ValueError):
            Schedule(handmade_instance, [0, 1, 2, 0])

    def test_random_is_valid(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=3)
        assert schedule.assignment.min() >= 0
        assert schedule.assignment.max() < tiny_instance.nb_machines

    def test_random_is_deterministic(self, tiny_instance):
        a = Schedule.random(tiny_instance, rng=5)
        b = Schedule.random(tiny_instance, rng=5)
        assert np.array_equal(a.assignment, b.assignment)


class TestObjectives:
    def test_completion_times_by_hand(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 1, 0, 1])
        # machine 0: jobs 0 and 2 -> 2 + 5 = 7 ; machine 1: jobs 1 and 3 -> 1 + 2 = 3
        assert schedule.completion_times.tolist() == [7.0, 3.0]
        assert schedule.makespan == 7.0

    def test_flowtime_by_hand_spt_order(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 1, 0, 1])
        # machine 0 runs job0 (2) then job2 (5): finishing times 2, 7 -> 9
        # machine 1 runs job1 (1) then job3 (2): finishing times 1, 3 -> 4
        assert schedule.flowtime == pytest.approx(13.0)
        assert schedule.mean_flowtime == pytest.approx(6.5)

    def test_ready_times_added(self, handmade_instance):
        instance = SchedulingInstance(
            etc=handmade_instance.etc, ready_times=[10.0, 20.0], name="ready"
        )
        schedule = Schedule(instance, [0, 1, 0, 1])
        assert schedule.completion_times.tolist() == [17.0, 23.0]
        # flowtime: machine 0 -> 12 + 17 = 29 ; machine 1 -> 21 + 23 = 44
        assert schedule.flowtime == pytest.approx(73.0)

    def test_makespan_at_least_lower_bound(self, small_instance):
        schedule = Schedule.random(small_instance, rng=1)
        assert schedule.makespan >= small_instance.makespan_lower_bound() - 1e-9

    def test_flowtime_at_least_makespan(self, small_instance):
        # The machine defining the makespan contributes at least the makespan.
        schedule = Schedule.random(small_instance, rng=1)
        assert schedule.flowtime >= schedule.makespan

    def test_empty_machine_contributes_nothing(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 0, 0, 0])
        assert schedule.completion_times[1] == 0.0
        assert schedule.machine_jobs(1).size == 0


class TestIncrementalMove:
    def test_move_updates_caches(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=11)
        schedule.move_job(3, (schedule.assignment[3] + 1) % tiny_instance.nb_machines)
        schedule.validate()

    def test_move_to_same_machine_is_noop(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=11)
        before = schedule.completion_times.copy()
        schedule.move_job(0, int(schedule.assignment[0]))
        assert np.array_equal(schedule.completion_times, before)

    def test_many_random_moves_stay_consistent(self, tiny_instance, rng):
        schedule = Schedule.random(tiny_instance, rng=1)
        for _ in range(50):
            job = int(rng.integers(tiny_instance.nb_jobs))
            machine = int(rng.integers(tiny_instance.nb_machines))
            schedule.move_job(job, machine)
        schedule.validate()

    def test_move_invalid_job_rejected(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=1)
        with pytest.raises(IndexError):
            schedule.move_job(999, 0)

    def test_move_invalid_machine_rejected(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=1)
        with pytest.raises(IndexError):
            schedule.move_job(0, 999)


class TestIncrementalSwap:
    def test_swap_updates_caches(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=2)
        assignment = schedule.assignment
        job_a = 0
        job_b = next(
            j for j in range(tiny_instance.nb_jobs) if assignment[j] != assignment[0]
        )
        schedule.swap_jobs(job_a, job_b)
        schedule.validate()

    def test_swap_same_machine_is_noop(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 0, 1, 1])
        before_completion = schedule.completion_times.copy()
        before_flowtime = schedule.flowtime
        schedule.swap_jobs(0, 1)
        assert np.array_equal(schedule.completion_times, before_completion)
        assert schedule.flowtime == before_flowtime

    def test_swap_exchanges_assignment(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 1, 0, 1])
        schedule.swap_jobs(0, 1)
        assert schedule.assignment.tolist() == [1, 0, 0, 1]

    def test_many_random_swaps_stay_consistent(self, tiny_instance, rng):
        schedule = Schedule.random(tiny_instance, rng=4)
        for _ in range(50):
            a, b = rng.integers(tiny_instance.nb_jobs, size=2)
            schedule.swap_jobs(int(a), int(b))
        schedule.validate()


class TestWhatIf:
    def test_makespan_if_moved_matches_actual(self, tiny_instance, rng):
        schedule = Schedule.random(tiny_instance, rng=6)
        for _ in range(20):
            job = int(rng.integers(tiny_instance.nb_jobs))
            machine = int(rng.integers(tiny_instance.nb_machines))
            predicted = schedule.makespan_if_moved(job, machine)
            probe = schedule.copy()
            probe.move_job(job, machine)
            assert predicted == pytest.approx(probe.makespan)

    def test_makespan_if_swapped_matches_actual(self, tiny_instance, rng):
        schedule = Schedule.random(tiny_instance, rng=6)
        for _ in range(20):
            a, b = (int(x) for x in rng.integers(tiny_instance.nb_jobs, size=2))
            predicted = schedule.makespan_if_swapped(a, b)
            probe = schedule.copy()
            probe.swap_jobs(a, b)
            assert predicted == pytest.approx(probe.makespan)


class TestViewsAndHelpers:
    def test_assignment_view_is_readonly(self, random_schedule):
        with pytest.raises(ValueError):
            random_schedule.assignment[0] = 1

    def test_completion_view_is_readonly(self, random_schedule):
        with pytest.raises(ValueError):
            random_schedule.completion_times[0] = 1.0

    def test_copy_is_independent(self, random_schedule):
        clone = random_schedule.copy()
        clone.move_job(0, (clone.assignment[0] + 1) % clone.instance.nb_machines)
        assert not np.array_equal(clone.assignment, random_schedule.assignment)
        random_schedule.validate()

    def test_machine_job_counts_sum_to_jobs(self, random_schedule):
        counts = random_schedule.machine_job_counts()
        assert counts.sum() == random_schedule.instance.nb_jobs

    def test_load_factors_in_unit_interval(self, random_schedule):
        factors = random_schedule.load_factors()
        assert factors.max() == pytest.approx(1.0)
        assert np.all(factors >= 0.0)

    def test_most_loaded_machine_defines_makespan(self, random_schedule):
        machine = random_schedule.most_loaded_machine()
        assert random_schedule.completion_times[machine] == random_schedule.makespan

    def test_set_assignment_recomputes(self, handmade_instance):
        schedule = Schedule(handmade_instance, [0, 0, 0, 0])
        schedule.set_assignment([1, 1, 1, 1])
        assert schedule.completion_times[0] == 0.0
        schedule.validate()

    def test_distance(self, handmade_instance):
        a = Schedule(handmade_instance, [0, 0, 1, 1])
        b = Schedule(handmade_instance, [0, 1, 1, 0])
        assert a.distance(b) == 2
        assert a.distance(a) == 0

    def test_equality_and_hash(self, handmade_instance):
        a = Schedule(handmade_instance, [0, 1, 0, 1])
        b = Schedule(handmade_instance, [0, 1, 0, 1])
        c = Schedule(handmade_instance, [1, 1, 0, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "something else"


class TestLazyFlowtime:
    """Construction fills completion times only; flowtimes on first read."""

    @pytest.mark.parametrize("heuristic", ["mct", "min_min", "ljfr_sjfr"])
    def test_moves_before_the_first_read_stay_bit_identical(self, small_instance, heuristic):
        from repro.heuristics import build_schedule

        lazy = build_schedule(heuristic, small_instance)
        eager = lazy.copy()
        eager.machine_flowtimes  # fills the cache before any move
        rng = np.random.default_rng(11)
        for _ in range(40):
            job = int(rng.integers(small_instance.nb_jobs))
            if rng.random() < 0.5:
                machine = int(rng.integers(small_instance.nb_machines))
                lazy.move_job(job, machine)
                eager.move_job(job, machine)
            else:
                other = int(rng.integers(small_instance.nb_jobs))
                lazy.swap_jobs(job, other)
                eager.swap_jobs(job, other)
        reference = Schedule(small_instance, lazy.assignment)
        assert np.array_equal(lazy.machine_flowtimes, reference.machine_flowtimes)
        assert np.array_equal(eager.machine_flowtimes, reference.machine_flowtimes)
        assert lazy.flowtime == reference.flowtime

    def test_view_set_assignment_keeps_the_engine_row_coherent(self, small_instance):
        from repro.engine import BatchEvaluator

        batch = BatchEvaluator.random(small_instance, 4, rng=2)
        new = np.random.default_rng(9).integers(
            0, small_instance.nb_machines, size=small_instance.nb_jobs
        )
        batch.view(1).set_assignment(new)
        batch.validate()
        assert np.array_equal(
            batch.view(1).machine_flowtimes,
            Schedule(small_instance, new).machine_flowtimes,
        )
