"""Property test: every accepted submission is exactly-once accounted.

Under *any* interleaving of submissions, clock advances, activations,
cancellations and chaos-injected machine breakdowns/repairs — including
overload (tiny queue capacity), degraded batches and either shutdown
flavour — each submission the core accepted must end in exactly one *last*
fate: planned by an activation, cancelled, or shed at abort.  A breakdown
revokes the unfinished jobs of its machine and re-queues them, so a job may
be planned again, but only after a revocation.  This is the invariant that
makes the shed counter a trustworthy backpressure signal: nothing is
silently dropped, nothing is planned twice without a revocation in between,
and a withdrawn job never reappears.
"""

import io
import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ServiceConfig
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.obs import TraceLog, lifecycle_violations
from repro.service import FakeClock, SchedulerCore

MACHINES = [GridMachine(machine_id=i, mips=1000.0) for i in range(3)]

# One step of the interleaving: accept-or-shed a job, let wall time pass,
# fire an activation (which may be idle), withdraw an accepted job (the
# value picks which), or flip a machine's availability (chaos steps —
# machine 0 stays up so activations can always make progress).
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.floats(min_value=1.0, max_value=5000.0)),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=10.0)),
        st.tuples(st.just("activate"), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=100)),
        st.tuples(st.just("break"), st.integers(min_value=1, max_value=2)),
        st.tuples(st.just("repair"), st.integers(min_value=1, max_value=2)),
    ),
    max_size=60,
)

# Revoke-then-replan: Min-Min spreads three equal jobs over the three
# machines, machine 1 breaks before its job finishes, and the next
# activation plans that job again.
REVOKE_THEN_REPLAN = [
    ("submit", 1000.0),
    ("submit", 1000.0),
    ("submit", 1000.0),
    ("activate", 0),
    ("break", 1),
    ("activate", 0),
]


@settings(max_examples=60, deadline=None)
@given(
    steps=STEPS,
    capacity=st.integers(min_value=2, max_value=8),
    drain_at_end=st.booleans(),
)
@example(steps=REVOKE_THEN_REPLAN, capacity=8, drain_at_end=False)
def test_accepted_equals_scheduled_plus_shed(steps, capacity, drain_at_end):
    clock = FakeClock()
    log = io.StringIO()
    core = SchedulerCore(
        MACHINES,
        HeuristicBatchPolicy("min_min"),
        ServiceConfig(
            queue_capacity=capacity,
            degrade_threshold=max(2, capacity // 2),
            recover_threshold=1,
        ),
        clock=clock,
        rng=0,
        trace_log=TraceLog(log),
    )
    accepted: list[int] = []
    planned: list[int] = []
    cancelled: list[int] = []
    shed_on_submit = 0

    for op, value in steps:
        if op == "submit":
            job_id = core.submit(value)
            if job_id is None:
                shed_on_submit += 1
            else:
                accepted.append(job_id)
        elif op == "advance":
            clock.advance(value)
        elif op == "cancel":
            # Aim at an accepted id when there is one (it may already be
            # planned or cancelled — then cancel must return False),
            # otherwise at an id the core never issued.
            target = accepted[value % len(accepted)] if accepted else value
            if core.cancel(target):
                cancelled.append(target)
        elif op == "break":
            core.break_machine(value)
        elif op == "repair":
            core.repair_machine(value)
        else:
            planned.extend(core.activate().scheduled_ids)

    if drain_at_end:
        for index in range(1, len(MACHINES)):
            core.repair_machine(index)  # drain must not stall on a dark park
        for outcome in core.drain():
            planned.extend(outcome.scheduled_ids)
    shed_at_shutdown = list(core.abort())
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    revoked = [event["job_id"] for event in events if event["event"] == "job_revoked"]

    # A job is planned again only after a revocation: the lifecycle fold
    # flags a second plan without one, and no job is revoked more often
    # than it was planned.
    assert lifecycle_violations(events) == []
    plans, revocations = Counter(planned), Counter(revoked)
    assert not revocations - plans
    assert all(plans[job] - revocations[job] <= 1 for job in plans)
    last_planned = [job for job in plans if plans[job] > revocations[job]]
    # Exactly once by last fate: the planned, cancelled and shutdown-shed
    # ids partition the accepted ids — no duplicates, no losses, no
    # invented ids, and a cancelled job never reappears in a batch.
    assert sorted(last_planned + cancelled + shed_at_shutdown) == sorted(accepted)
    # And the counters agree with the observed fates.
    assert core.accepted == len(accepted)
    assert core.scheduled == len(last_planned)
    assert core.revoked == len(revoked)
    assert core.cancelled == len(cancelled)
    assert core.shed == shed_on_submit + len(shed_at_shutdown)
    assert core.backlog == 0
    if steps == REVOKE_THEN_REPLAN:
        assert revoked == [1] and planned == [0, 1, 2, 1]
