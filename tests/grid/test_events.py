"""Unit and property tests for the typed event queue.

The simulator's bit-exact replay guarantee rests on one invariant: the pop
order of an :class:`~repro.grid.events.EventQueue` is a pure function of the
push sequence — chronological, then by event-kind priority, then FIFO.  The
hypothesis tests drive that invariant over arbitrary (time, kind) multisets,
including adversarial numbers of equal timestamps.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.events import Event, EventQueue, EventType


class TestEventType:
    def test_priority_order_is_the_within_tick_order(self):
        # Joins before leaves before arrivals before cancellations before
        # the activation itself — the classic periodic loop's within-tick
        # order.
        assert (
            EventType.MACHINE_JOIN
            < EventType.MACHINE_LEAVE
            < EventType.TASK_SUBMIT
            < EventType.TASK_CANCEL
            < EventType.SCHEDULER_TICK
        )


class TestEventQueue:
    def test_pops_in_chronological_order(self):
        queue = EventQueue()
        queue.push(5.0, EventType.TASK_SUBMIT, "late")
        queue.push(1.0, EventType.TASK_SUBMIT, "early")
        queue.push(3.0, EventType.TASK_SUBMIT, "middle")
        assert [queue.pop().payload for _ in range(3)] == ["early", "middle", "late"]

    def test_equal_times_pop_by_kind_priority(self):
        queue = EventQueue()
        queue.push(2.0, EventType.SCHEDULER_TICK, "tick")
        queue.push(2.0, EventType.TASK_SUBMIT, "submit")
        queue.push(2.0, EventType.MACHINE_LEAVE, "leave")
        queue.push(2.0, EventType.MACHINE_JOIN, "join")
        queue.push(2.0, EventType.TASK_CANCEL, "cancel")
        order = [queue.pop().payload for _ in range(5)]
        assert order == ["join", "leave", "submit", "cancel", "tick"]

    def test_equal_time_and_kind_pop_fifo(self):
        queue = EventQueue()
        for payload in range(10):
            queue.push(1.0, EventType.TASK_SUBMIT, payload)
        assert [queue.pop().payload for _ in range(10)] == list(range(10))

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(1.0, EventType.MACHINE_JOIN, 0)
        assert queue.peek().payload == 0
        assert len(queue) == 1
        assert queue.pop().payload == 0
        assert not queue

    def test_len_and_bool(self):
        queue = EventQueue()
        assert len(queue) == 0 and not queue
        queue.push(0.0, EventType.SCHEDULER_TICK)
        assert len(queue) == 1 and queue

    def test_push_returns_the_stored_event(self):
        queue = EventQueue()
        event = queue.push(4, EventType.TASK_CANCEL, "payload")
        assert isinstance(event, Event)
        assert event.time == 4.0 and isinstance(event.time, float)
        assert event.kind is EventType.TASK_CANCEL
        assert event.payload == "payload"
        assert queue.pop() == event

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_times(self, bad):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.push(bad, EventType.TASK_SUBMIT)

    def test_payloads_are_never_compared(self):
        # Payload types without an ordering (here: dicts and None) must not
        # break heap comparisons even at equal (time, kind).
        queue = EventQueue()
        queue.push(1.0, EventType.TASK_SUBMIT, {"a": 1})
        queue.push(1.0, EventType.TASK_SUBMIT, None)
        queue.push(1.0, EventType.TASK_SUBMIT, {"b": 2})
        assert [queue.pop().payload for _ in range(3)] == [{"a": 1}, None, {"b": 2}]


# Few distinct timestamps on purpose: collisions are the interesting case.
_events = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.25]),
        st.sampled_from(list(EventType)),
    ),
    max_size=60,
)


class TestEventOrderingProperties:
    @given(pushes=_events)
    @settings(max_examples=200, deadline=None)
    def test_pop_order_is_sorted_by_time_kind_seq(self, pushes):
        queue = EventQueue()
        for time, kind in pushes:
            queue.push(time, kind)
        popped = [queue.pop() for _ in range(len(pushes))]
        keys = [(event.time, event.kind, event.seq) for event in popped]
        assert keys == sorted(keys)
        assert not queue

    @given(pushes=_events)
    @settings(max_examples=200, deadline=None)
    def test_two_queues_fed_the_same_pushes_drain_identically(self, pushes):
        first, second = EventQueue(), EventQueue()
        for index, (time, kind) in enumerate(pushes):
            first.push(time, kind, index)
            second.push(time, kind, index)
        drained_first = [first.pop() for _ in range(len(pushes))]
        drained_second = [second.pop() for _ in range(len(pushes))]
        assert drained_first == drained_second

    @given(pushes=_events)
    @settings(max_examples=100, deadline=None)
    def test_equal_time_and_kind_preserve_push_order(self, pushes):
        queue = EventQueue()
        for index, (time, kind) in enumerate(pushes):
            queue.push(time, kind, index)
        popped = [queue.pop() for _ in range(len(pushes))]
        for earlier, later in zip(popped, popped[1:]):
            if earlier.time == later.time and earlier.kind == later.kind:
                assert earlier.payload < later.payload
