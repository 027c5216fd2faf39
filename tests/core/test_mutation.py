"""Tests for the mutation operators (rebalance, move, swap)."""

import numpy as np
import pytest

from repro.core.mutation import (
    MoveMutation,
    RebalanceMutation,
    RebalanceSwapMutation,
    SwapMutation,
    get_mutation,
    list_mutations,
)
from repro.engine import BatchEvaluator
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule


class TestRegistry:
    def test_names(self):
        assert set(list_mutations()) == {"rebalance", "move", "swap", "rebalance_swap"}

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_mutation("scramble")

    def test_kwargs_forwarded(self):
        assert get_mutation("rebalance", underloaded_fraction=0.5).underloaded_fraction == 0.5


class TestRebalanceMutation:
    def test_moves_job_off_the_makespan_machine(self, small_instance):
        schedule = Schedule.random(small_instance, rng=1)
        overloaded = schedule.most_loaded_machine()
        count_before = schedule.machine_jobs(overloaded).size
        makespan_before = schedule.makespan
        RebalanceMutation().mutate(schedule, rng=2)
        schedule.validate()
        # The overloaded machine lost a job (or, in degenerate cases, the
        # schedule changed some other way); its completion cannot increase.
        assert schedule.completion_times[overloaded] <= makespan_before + 1e-9
        assert schedule.machine_jobs(overloaded).size <= count_before

    def test_target_is_an_underloaded_machine(self, small_instance):
        schedule = Schedule.random(small_instance, rng=3)
        before = np.array(schedule.assignment)
        completion_before = schedule.completion_times.copy()
        threshold = np.sort(completion_before)[
            max(0, int(np.ceil(0.25 * small_instance.nb_machines)) - 1)
        ]
        RebalanceMutation().mutate(schedule, rng=4)
        changed = np.nonzero(before != schedule.assignment)[0]
        if changed.size:  # a degenerate fall-back move may pick any machine
            target = int(schedule.assignment[changed[0]])
            source = int(before[changed[0]])
            if completion_before[source] == completion_before.max():
                assert completion_before[target] <= threshold + 1e-9

    def test_changes_exactly_zero_or_one_gene(self, small_instance):
        schedule = Schedule.random(small_instance, rng=5)
        before = np.array(schedule.assignment)
        RebalanceMutation().mutate(schedule, rng=6)
        assert np.count_nonzero(before != schedule.assignment) <= 1

    def test_single_machine_is_noop(self):
        instance = SchedulingInstance(etc=np.arange(1.0, 6.0).reshape(5, 1))
        schedule = Schedule(instance)
        RebalanceMutation().mutate(schedule, rng=0)
        assert set(schedule.assignment.tolist()) == {0}

    def test_uniform_load_falls_back_to_move(self):
        # Two identical machines, two identical jobs: every machine is "overloaded".
        etc = np.full((2, 2), 3.0)
        schedule = Schedule(SchedulingInstance(etc=etc), [0, 1])
        RebalanceMutation().mutate(schedule, rng=1)
        schedule.validate()

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            RebalanceMutation(underloaded_fraction=0.0)


class TestMoveMutation:
    def test_changes_at_most_one_gene(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=1)
        before = np.array(schedule.assignment)
        MoveMutation().mutate(schedule, rng=2)
        assert np.count_nonzero(before != schedule.assignment) <= 1
        schedule.validate()

    def test_deterministic_given_seed(self, tiny_instance):
        a = Schedule.random(tiny_instance, rng=1)
        b = Schedule.random(tiny_instance, rng=1)
        MoveMutation().mutate(a, rng=9)
        MoveMutation().mutate(b, rng=9)
        assert np.array_equal(a.assignment, b.assignment)


class TestSwapMutation:
    def test_preserves_machine_job_counts(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=2)
        counts_before = schedule.machine_job_counts()
        SwapMutation().mutate(schedule, rng=3)
        schedule.validate()
        assert np.array_equal(counts_before, schedule.machine_job_counts())

    def test_changes_exactly_two_genes_or_none(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=4)
        before = np.array(schedule.assignment)
        SwapMutation().mutate(schedule, rng=5)
        assert np.count_nonzero(before != schedule.assignment) in (0, 1, 2)

    def test_single_job_instance_is_safe(self):
        instance = SchedulingInstance(etc=np.array([[1.0, 2.0]]))
        schedule = Schedule(instance, [0])
        SwapMutation().mutate(schedule, rng=0)
        schedule.validate()


class TestRebalanceSwap:
    def test_keeps_schedule_valid(self, small_instance):
        schedule = Schedule.random(small_instance, rng=6)
        RebalanceSwapMutation().mutate(schedule, rng=7)
        schedule.validate()


def rebalance_with_choice(schedule, gen, underloaded_fraction=0.25):
    """The rebalance mutation as it was written with ``Generator.choice``."""
    completion = schedule.completion_times
    nb_machines = completion.shape[0]
    if nb_machines < 2:
        return
    makespan = schedule.makespan
    overloaded = np.nonzero(completion >= makespan)[0]
    count = max(1, int(np.ceil(underloaded_fraction * nb_machines)))
    by_load = np.argsort(completion, kind="stable")[:count]
    underloaded = by_load[completion[by_load] < makespan]
    if underloaded.size == 0:
        MoveMutation().mutate(schedule, gen)
        return
    source = int(gen.choice(overloaded))
    jobs = schedule.machine_jobs(source)
    if jobs.size == 0:
        MoveMutation().mutate(schedule, gen)
        return
    job = int(gen.choice(jobs))
    target = int(gen.choice(underloaded))
    schedule.move_job(job, target)


class TestRebalanceDrawOracle:
    """`RebalanceMutation` against its ``Generator.choice`` version, bit for bit."""

    @staticmethod
    def assert_same(schedule, expected, gen, reference):
        np.testing.assert_array_equal(schedule.assignment, expected.assignment)
        np.testing.assert_array_equal(schedule.completion_times, expected.completion_times)
        np.testing.assert_array_equal(schedule.machine_flowtimes, expected.machine_flowtimes)
        assert gen.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_matches_choice_version_on_schedules_and_views(
        self, small_instance, ready_time_instance, fraction
    ):
        mutation = RebalanceMutation(fraction)
        for instance in (small_instance, ready_time_instance):
            for seed in range(40):
                batch = BatchEvaluator.random(instance, 2, rng=seed)
                twin = BatchEvaluator(instance, batch.assignments[:])
                reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(4):  # successive mutations meet new loads and states
                    mutation.mutate(batch.view(0), gen)
                    rebalance_with_choice(twin.view(0), reference, fraction)
                    self.assert_same(batch.view(0), twin.view(0), gen, reference)
                schedule = Schedule.random(instance, rng=seed)
                expected = schedule.copy()
                mutation.mutate(schedule, gen)
                rebalance_with_choice(expected, reference, fraction)
                self.assert_same(schedule, expected, gen, reference)

    def test_matches_choice_version_when_every_load_is_equal(self):
        # No machine is less loaded: both fall back to a random move.
        instance = SchedulingInstance(etc=np.full((4, 2), 3.0))
        for seed in range(20):
            schedule, expected = Schedule(instance, [0, 1, 0, 1]), Schedule(instance, [0, 1, 0, 1])
            reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            RebalanceMutation().mutate(schedule, gen)
            rebalance_with_choice(expected, reference)
            self.assert_same(schedule, expected, gen, reference)

    def test_matches_choice_version_when_the_source_holds_no_job(self):
        # Machine 0's ready time alone sets the makespan and no job runs
        # there: both fall back to a random move after drawing the source.
        instance = SchedulingInstance(
            etc=np.arange(1.0, 13.0).reshape(4, 3), ready_times=[100.0, 0.0, 0.0]
        )
        for seed in range(20):
            schedule, expected = Schedule(instance, [1, 2, 1, 2]), Schedule(instance, [1, 2, 1, 2])
            reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            RebalanceMutation().mutate(schedule, gen)
            rebalance_with_choice(expected, reference)
            self.assert_same(schedule, expected, gen, reference)
