"""The job table: one bulk job format from the trace layer down."""

import dataclasses
import io
import math

import numpy as np
import pytest

from repro.core.config import RetryPolicy, TraceConfig
from repro.grid import GridSimulator, HeuristicBatchPolicy, SimulationConfig
from repro.grid.job import GridJob, JobTable
from repro.obs import TraceLog
from repro.traces import generate_trace


def table(**columns):
    base = dict(ids=[3, 1, 2], workloads=[30.0, 10.0, 20.0], arrivals=[2.0, 0.0, 2.0])
    return JobTable(**(base | columns))


class TestJobTable:
    def test_rows_read_as_grid_jobs(self):
        jobs = table(due_dates=[9.0, math.inf, math.inf], cancel_times=[math.inf, 4.0, math.inf])
        assert len(jobs) == 3
        assert jobs[0] == GridJob(3, 30.0, 2.0, due_date=9.0)
        assert jobs[1] == GridJob(1, 10.0, 0.0, cancel_time=4.0)
        assert list(jobs) == [jobs[0], jobs[1], jobs[2]]

    def test_absent_due_dates_and_cancel_times_mean_none(self):
        jobs = table()
        assert jobs.due_dates.tolist() == jobs.cancel_times.tolist() == [math.inf] * 3
        assert jobs[2] == GridJob(2, 20.0, 2.0)

    def test_of_converts_grid_jobs_and_keeps_a_table(self):
        jobs = table(due_dates=[9.0, math.inf, math.inf])
        converted = JobTable.of(list(jobs))
        for name in ("ids", "workloads", "arrivals", "due_dates", "cancel_times"):
            np.testing.assert_array_equal(getattr(converted, name), getattr(jobs, name))
        assert JobTable.of(jobs) is jobs

    def test_arrival_order_is_stable(self):
        ordered = table().in_arrival_order()
        assert ordered.ids.tolist() == [1, 3, 2]  # 3 and 2 tie at 2.0
        assert ordered.in_arrival_order() is ordered

    def test_take_and_position(self):
        jobs = table()
        assert jobs.take([2, 0]).ids.tolist() == [2, 3]
        assert [jobs.position(job_id) for job_id in (1, 2, 3)] == [1, 2, 0]
        with pytest.raises(KeyError):
            jobs.position(7)

    @pytest.mark.parametrize(
        "columns",
        [
            dict(ids=[1, 1, 2]),
            dict(workloads=[1.0, 0.0, 1.0]),
            dict(workloads=[1.0, math.inf, 1.0]),
            dict(arrivals=[0.0, -1.0, 0.0]),
            dict(due_dates=[1.0, math.inf, math.inf]),  # before its arrival
            dict(cancel_times=[2.0, math.inf, math.inf]),  # at its arrival
            dict(arrivals=[0.0, 1.0]),
        ],
    )
    def test_every_per_job_rule_is_checked(self, columns):
        with pytest.raises(ValueError):
            table(**columns)


def counting_grid_jobs(monkeypatch):
    """Count every ``GridJob`` built from here on."""
    built = []
    check = GridJob.__post_init__

    def counted(job):
        built.append(job.job_id)
        check(job)

    monkeypatch.setattr(GridJob, "__post_init__", counted)
    return built


@pytest.mark.parametrize("traced", [False, True])
def test_a_trace_replay_builds_no_grid_job_until_records_are_read(monkeypatch, traced):
    trace = generate_trace(
        TraceConfig(family="flaky", duration=60.0, rate=1.0, nb_machines=4), seed=3
    )
    trace = dataclasses.replace(
        trace,
        job_due_dates=np.where(trace.job_ids % 3 == 0, trace.job_arrivals + 12.0, np.inf),
        job_cancel_times=np.where(trace.job_ids % 5 == 0, trace.job_arrivals + 5.0, np.inf),
    )
    built = counting_grid_jobs(monkeypatch)
    simulator = GridSimulator.from_trace(
        trace,
        HeuristicBatchPolicy("mct"),
        SimulationConfig(activation_interval=3.0, retry=RetryPolicy(max_attempts=1)),
        rng=5,
        trace_log=TraceLog(io.StringIO()) if traced else None,
    )
    metrics = simulator.run()
    assert metrics.cancelled_jobs and metrics.failed_jobs and metrics.missed_deadlines
    assert simulator.jobs is trace.jobs
    assert built == []
    # Reading a record builds its job's view.
    job_id = int(trace.job_ids[4])
    assert simulator.records[job_id].job.job_id == job_id
    assert built == [job_id]
