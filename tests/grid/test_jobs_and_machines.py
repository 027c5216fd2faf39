"""Tests for the grid job / machine building blocks."""

import pytest

from repro.grid.job import GridJob, JobRecord, JobState, JobTable
from repro.grid.machine import GridMachine, execution_times_matrix


def one_job(job_id, workload):
    """A one-job table arriving at 0."""
    return JobTable(ids=[job_id], workloads=[workload], arrivals=[0.0])


class TestGridJob:
    def test_fields(self):
        job = GridJob(job_id=1, workload=500.0, arrival_time=3.0)
        assert job.workload == 500.0
        assert job.arrival_time == 3.0

    def test_nonpositive_workload_rejected(self):
        with pytest.raises(ValueError):
            GridJob(job_id=1, workload=0.0, arrival_time=0.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            GridJob(job_id=1, workload=1.0, arrival_time=-1.0)


class TestJobRecord:
    def test_initial_state_pending(self):
        record = JobRecord(job=GridJob(0, 10.0, 0.0))
        assert record.state is JobState.PENDING
        assert record.reschedules == 0

    def test_response_time(self):
        record = JobRecord(job=GridJob(0, 10.0, 5.0))
        record.start_time = 8.0
        record.completion_time = 20.0
        assert record.response_time == 15.0
        assert record.waiting_time == 3.0

    def test_response_before_completion_raises(self):
        record = JobRecord(job=GridJob(0, 10.0, 5.0))
        with pytest.raises(ValueError):
            record.response_time
        with pytest.raises(ValueError):
            record.waiting_time


class TestGridMachine:
    def test_execution_time_is_workload_over_mips(self):
        machine = GridMachine(machine_id=0, mips=10.0)
        etc = execution_times_matrix(one_job(0, 50.0), [machine])
        assert etc[0, 0] == pytest.approx(5.0)

    def test_affinity_spread_perturbs_deterministically(self):
        machine = GridMachine(machine_id=0, mips=10.0, affinity_spread=0.5)
        job = one_job(3, 50.0)
        etc = execution_times_matrix(job, [machine])[0, 0]
        assert execution_times_matrix(job, [machine])[0, 0] == etc
        assert etc != pytest.approx(5.0)

    def test_leave_before_join_rejected(self):
        with pytest.raises(ValueError):
            GridMachine(machine_id=0, mips=1.0, join_time=10.0, leave_time=5.0)

    def test_nonpositive_mips_rejected(self):
        with pytest.raises(ValueError):
            GridMachine(machine_id=0, mips=0.0)
