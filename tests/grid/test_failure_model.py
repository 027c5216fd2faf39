"""The failure model: breakdowns, cancellation, retry caps, deadlines.

Two layers of protection:

* targeted unit tests pin each mechanism — a breakdown revokes exactly the
  in-flight work and the repair restores the machine, the retry cap drops
  jobs as *failed*, a cancel removes the job from whichever stage it sits
  in, and the deadline accounting distinguishes misses from tardiness;
* a Hypothesis property test drives randomized scenarios (breakdown
  windows, cancels, deadlines, retry policies, both activation drivers)
  through the full simulation and checks the global conservation laws the
  mechanisms must jointly preserve: **every job ends in exactly one of
  completed ⊎ cancelled ⊎ dropped-after-retry-cap**, each revocation
  increments the job's reschedule counter exactly once, and the machines'
  busy time equals the work actually processed — the exactly-once credit
  discipline, extended from the PR-6 ``_CountingSimulator`` pattern.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ActivationPolicy, RetryPolicy
from repro.grid.job import GridJob, JobState
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig

ADAPTIVE = ActivationPolicy.adaptive(backlog_threshold=1, min_interval=0.5)
DRIVERS = pytest.mark.parametrize(
    "activation", [None, ADAPTIVE], ids=["periodic", "adaptive"]
)


def _simulate(jobs, machines, *, retry=None, activation=None, interval=5.0):
    return GridSimulator(
        jobs,
        machines,
        HeuristicBatchPolicy("min_min"),
        SimulationConfig(
            activation_interval=interval, activation=activation, retry=retry
        ),
        rng=7,
    )


class TestBreakdowns:
    def test_breakdown_revokes_in_flight_work_and_repair_restores(self):
        # One job on a fragile machine that is much faster than the backup:
        # min_min places it there, the t=2 breakdown revokes it, and the
        # 2 s retry backoff re-admits it after the t=3 repair — so it runs
        # on the repaired fast machine and finishes in seconds, not the
        # ~500 s the slow machine would need.
        jobs = [GridJob(job_id=0, workload=50_000.0, arrival_time=0.0)]
        machines = [
            GridMachine(machine_id=0, mips=100.0),
            GridMachine(machine_id=1, mips=10_000.0, breakdowns=((2.0, 3.0),)),
        ]
        simulator = _simulate(
            jobs,
            machines,
            retry=RetryPolicy(max_attempts=5, backoff_base=2.0, jitter=0.0),
            interval=1.0,
        )
        metrics = simulator.run()
        assert metrics.completed_jobs == 1
        assert metrics.rescheduled_jobs == 1
        events = [(e.event, e.machine_id) for e in metrics.machine_events]
        assert ("breakdown", 1) in events
        assert ("repair", 1) in events
        assert simulator.records[0].machine_id == 1
        assert metrics.makespan < 100.0

    def test_broken_machine_gets_no_new_work(self):
        # The fast machine is down for the whole stream: everything must
        # run on the slow one even though the fast one never "left".
        jobs = [
            GridJob(job_id=j, workload=1000.0, arrival_time=0.0) for j in range(4)
        ]
        machines = [
            GridMachine(machine_id=0, mips=100.0),
            GridMachine(machine_id=1, mips=10_000.0, breakdowns=((0.0, 1e9),)),
        ]
        simulator = _simulate(jobs, machines, interval=1.0)
        metrics = simulator.run()
        assert metrics.completed_jobs == 4
        assert all(
            record.machine_id == 0 for record in simulator.records.values()
        )

    @DRIVERS
    def test_retry_cap_drops_jobs_as_failed(self, activation):
        # The fast machine's up-windows are too short for the 20 s job, and
        # the 6 s backoff re-admits the revoked job right into the next one
        # (min_min prefers the fast machine whenever it is up over the
        # ~55-hour slow alternative); with one allowed attempt the second
        # revocation drops it as FAILED instead of retrying forever.
        jobs = [GridJob(job_id=0, workload=200_000.0, arrival_time=0.0)]
        machines = [
            GridMachine(machine_id=0, mips=1.0),
            GridMachine(
                machine_id=1,
                mips=10_000.0,
                breakdowns=((5.0, 10.0), (15.0, 20.0), (25.0, 30.0)),
            ),
        ]
        simulator = _simulate(
            jobs,
            machines,
            retry=RetryPolicy(max_attempts=1, backoff_base=6.0, jitter=0.0),
            activation=activation,
            interval=1.0,
        )
        metrics = simulator.run()
        assert metrics.failed_jobs == 1
        assert metrics.completed_jobs == 0
        assert simulator.records[0].state is JobState.FAILED
        assert simulator.records[0].reschedules == 2

    def test_backoff_delays_readmission(self):
        # With a 100 s backoff (no jitter) the job revoked at t=5 cannot
        # restart before t=105; with immediate retry it finishes long
        # before.  Same trace, same seed — the only difference is the
        # retry policy.
        jobs = [GridJob(job_id=0, workload=100_000.0, arrival_time=0.0)]
        machines = [
            GridMachine(machine_id=0, mips=5_000.0),
            GridMachine(machine_id=1, mips=50_000.0, breakdowns=((1.0, 2.0),)),
        ]
        fast = _simulate(
            jobs,
            machines,
            retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
            interval=1.0,
        ).run()
        slow = _simulate(
            [GridJob(job_id=0, workload=100_000.0, arrival_time=0.0)],
            [
                GridMachine(machine_id=0, mips=5_000.0),
                GridMachine(
                    machine_id=1, mips=50_000.0, breakdowns=((1.0, 2.0),)
                ),
            ],
            retry=RetryPolicy(max_attempts=5, backoff_base=100.0, jitter=0.0),
            interval=1.0,
        ).run()
        assert fast.completed_jobs == slow.completed_jobs == 1
        assert slow.makespan >= 100.0 > fast.makespan


class TestCancellation:
    def test_cancel_pending_job(self):
        # Arrives just after the t=0 tick and is withdrawn before the next
        # one at t=5: no activation ever sees it.
        jobs = [
            GridJob(job_id=0, workload=1000.0, arrival_time=0.5, cancel_time=1.0)
        ]
        machines = [GridMachine(machine_id=0, mips=1000.0)]
        simulator = _simulate(jobs, machines, interval=5.0)
        metrics = simulator.run()
        assert metrics.cancelled_jobs == 1
        assert metrics.completed_jobs == 0
        assert simulator.records[0].state is JobState.CANCELLED

    def test_cancel_in_flight_credits_only_processed_work(self):
        # The job is scheduled at the t=0 tick and would run 100 s; the
        # cancel at t=10 leaves the machine credited for the 10 s it
        # actually ran, and takes back the completion credit.
        jobs = [
            GridJob(
                job_id=0, workload=100_000.0, arrival_time=0.0, cancel_time=10.0
            )
        ]
        machines = [GridMachine(machine_id=0, mips=1000.0)]
        simulator = _simulate(jobs, machines, interval=5.0)
        metrics = simulator.run()
        assert metrics.cancelled_jobs == 1
        assert simulator.park.busy_time[0] == pytest.approx(10.0)
        assert simulator.park.completed[0] == 0

    def test_cancel_after_completion_is_too_late(self):
        jobs = [
            GridJob(
                job_id=0, workload=1000.0, arrival_time=0.0, cancel_time=500.0
            )
        ]
        machines = [GridMachine(machine_id=0, mips=1000.0)]
        metrics = _simulate(jobs, machines, interval=1.0).run()
        assert metrics.completed_jobs == 1
        assert metrics.cancelled_jobs == 0


class TestDeadlines:
    def test_met_and_missed_deadlines_and_tardiness(self):
        # Two 10 s jobs on one machine: the first meets its generous due
        # date, the second queues behind it and lands ~10 s late.
        jobs = [
            GridJob(job_id=0, workload=10_000.0, arrival_time=0.0, due_date=50.0),
            GridJob(job_id=1, workload=10_000.0, arrival_time=0.0, due_date=12.0),
        ]
        machines = [GridMachine(machine_id=0, mips=1000.0)]
        metrics = _simulate(jobs, machines, interval=1.0).run()
        assert metrics.jobs_with_deadlines == 2
        assert metrics.missed_deadlines == 1
        assert metrics.total_tardiness > 0.0
        assert metrics.max_tardiness == pytest.approx(metrics.total_tardiness)

    def test_failed_job_with_deadline_counts_as_miss(self):
        jobs = [
            GridJob(
                job_id=0, workload=200_000.0, arrival_time=0.0, due_date=30.0
            )
        ]
        machines = [
            GridMachine(machine_id=0, mips=1.0),
            GridMachine(
                machine_id=1,
                mips=10_000.0,
                breakdowns=((5.0, 10.0), (15.0, 20.0), (25.0, 30.0)),
            ),
        ]
        metrics = _simulate(
            jobs,
            machines,
            retry=RetryPolicy(max_attempts=1, backoff_base=6.0, jitter=0.0),
            interval=1.0,
        ).run()
        assert metrics.failed_jobs == 1
        assert metrics.missed_deadlines == 1
        assert metrics.total_tardiness == 0.0  # it never completed


class _CreditTrackingSimulator(GridSimulator):
    """Observes every revocation and in-flight cancel without changing them.

    Extends the PR-6 counting-subclass pattern: wrap the handlers, record
    what *should* be credited, delegate to the real implementation, and let
    the test compare the simulator's final accounting against the
    independently accumulated ledger.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.revoked_entries = 0
        self.processed_ledger = 0.0  # partial work actually run before revoke/cancel

    def _revoke_in_flight(self, machine, now, cause):
        for entry in self.park.queues[machine]:
            if entry.finish > now:
                self.revoked_entries += 1
                self.processed_ledger += max(0.0, min(entry.finish, now) - entry.start)
        super()._revoke_in_flight(machine, now, cause)

    def _handle_cancel(self, position, now, adaptive):
        job = self.jobs[position]
        record = self.records[job.job_id]
        if (
            record.state is JobState.COMPLETED
            and record.machine_id is not None
            and record.completion_time is not None
            and record.completion_time > now
        ):
            for entry in self.park.queues[record.machine_id]:
                if entry.key == position:
                    self.processed_ledger += max(
                        0.0, min(entry.finish, now) - entry.start
                    )
                    break
        super()._handle_cancel(position, now, adaptive)


@st.composite
def _scenarios(draw):
    nb_jobs = draw(st.integers(min_value=1, max_value=8))
    jobs = []
    for job_id in range(nb_jobs):
        arrival = draw(st.floats(min_value=0.0, max_value=40.0))
        job = dict(
            job_id=job_id,
            workload=draw(st.floats(min_value=100.0, max_value=50_000.0)),
            arrival_time=arrival,
        )
        if draw(st.booleans()):
            job["due_date"] = arrival + draw(st.floats(min_value=0.0, max_value=60.0))
        if draw(st.booleans()):
            job["cancel_time"] = arrival + draw(
                st.floats(min_value=0.1, max_value=80.0)
            )
        jobs.append(GridJob(**job))
    # Machine 0 is always healthy, so pending work can always make
    # progress and the run terminates even under retry=None.
    machines = [GridMachine(machine_id=0, mips=1_000.0)]
    for machine_id in range(1, draw(st.integers(min_value=2, max_value=4))):
        nb_windows = draw(st.integers(min_value=0, max_value=2))
        bounds = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.5, max_value=90.0),
                    min_size=2 * nb_windows,
                    max_size=2 * nb_windows,
                    unique=True,
                )
            )
        )
        machines.append(
            GridMachine(
                machine_id=machine_id,
                mips=draw(st.floats(min_value=500.0, max_value=20_000.0)),
                breakdowns=tuple(
                    (bounds[2 * i], bounds[2 * i + 1]) for i in range(nb_windows)
                ),
            )
        )
    retry = draw(
        st.one_of(
            st.none(),
            st.builds(
                RetryPolicy,
                max_attempts=st.integers(min_value=1, max_value=3),
                backoff_base=st.floats(min_value=0.0, max_value=5.0),
                jitter=st.sampled_from([0.0, 0.1, 0.5]),
            ),
        )
    )
    return jobs, machines, retry


class TestFailureModelProperties:
    @DRIVERS
    @settings(max_examples=40, deadline=None)
    @given(scenario=_scenarios())
    def test_conservation_laws(self, activation, scenario):
        jobs, machines, retry = scenario
        simulator = _CreditTrackingSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(
                activation_interval=5.0, activation=activation, retry=retry
            ),
            rng=7,
        )
        metrics = simulator.run()
        records = simulator.records.values()

        # Partition: every job ends in exactly one terminal category.
        # Without a retry policy nothing can fail (unlimited resubmission).
        assert (
            metrics.completed_jobs + metrics.cancelled_jobs + metrics.failed_jobs
            == metrics.nb_jobs
        )
        if retry is None:
            assert metrics.failed_jobs == 0
        states = [record.state for record in records]
        assert states.count(JobState.COMPLETED) == metrics.completed_jobs
        assert states.count(JobState.CANCELLED) == metrics.cancelled_jobs
        assert states.count(JobState.FAILED) == metrics.failed_jobs

        # Each revocation bumped its job's reschedule counter exactly once.
        assert (
            sum(record.reschedules for record in records)
            == simulator.revoked_entries
        )
        if retry is not None:
            assert all(
                record.reschedules <= retry.max_attempts + 1 for record in records
            )

        # Exactly-once busy-time credit: the machines' total busy time is
        # the full duration of every surviving completion plus the partial
        # work revoked/cancelled placements actually ran — each credited
        # once, never twice.
        completed_work = sum(
            record.completion_time - record.start_time
            for record in records
            if record.state is JobState.COMPLETED
            and record.completion_time is not None
        )
        total_busy = sum(simulator.park.busy_time.tolist())
        assert math.isclose(
            total_busy,
            completed_work + simulator.processed_ledger,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

        # SLA accounting stays within its denominator.
        assert metrics.missed_deadlines <= metrics.jobs_with_deadlines
        assert metrics.total_tardiness >= metrics.max_tardiness >= 0.0

    def test_retry_backoff_is_deterministic(self):
        # Same scenario, same seeds -> bit-identical outcome including the
        # jittered backoff instants (the SplitMix64 jitter is pure).
        def run():
            jobs = [
                GridJob(job_id=j, workload=40_000.0, arrival_time=float(j))
                for j in range(5)
            ]
            machines = [
                GridMachine(machine_id=0, mips=200.0),
                GridMachine(
                    machine_id=1, mips=8_000.0, breakdowns=((2.0, 30.0),)
                ),
            ]
            return _simulate(
                jobs,
                machines,
                retry=RetryPolicy(max_attempts=3, backoff_base=2.0, jitter=0.5),
                interval=1.0,
            ).run()

        first, second = run(), run()
        assert first.makespan == second.makespan
        assert first.total_flowtime == second.total_flowtime
        # Everything but the host wall-clock timings must be bit-identical.
        def simulated(metrics):
            return {
                key: value
                for key, value in metrics.summary().items()
                if "scheduler_seconds" not in key
            }

        assert simulated(first) == simulated(second)
