"""Unit tests for the JSON-lines trace log, spans, and the summarizer."""

import io
import json
import threading

import numpy as np
import pytest

from repro.obs import TraceLog, read_trace, summarize_events, summarize_trace
from repro.obs.summarize import activation_rows, event_counts


def test_emit_writes_one_json_line_per_event(tmp_path):
    path = tmp_path / "trace.jsonl"
    log = TraceLog(path)
    log.emit("shed", time=1.5, backlog=64)
    log.emit("machine_join", time=2.0, machine_id=3)
    log.close()
    events = read_trace(path)
    assert [e["event"] for e in events] == ["shed", "machine_join"]
    assert events[0]["backlog"] == 64
    assert log.events_written == 2
    # Closing twice is fine; writes after close are dropped, not errors.
    log.close()
    log.emit("late", time=3.0)
    assert read_trace(path) == events


def test_numpy_fields_serialize_and_nan_is_refused():
    buffer = io.StringIO()
    log = TraceLog(buffer)
    log.emit(
        "activation",
        backlog=np.int64(7),
        seconds=np.float64(0.25),
        flag=np.bool_(True),
        values=np.array([1.0, 2.0]),
    )
    record = json.loads(buffer.getvalue())
    assert record["backlog"] == 7
    assert record["seconds"] == 0.25
    assert record["flag"] is True
    assert record["values"] == [1.0, 2.0]
    # NaN must never reach a trace field: JSON has no NaN literal.
    with pytest.raises(ValueError):
        log.emit("activation", seconds=float("nan"))


def test_read_trace_rejects_non_event_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    # Unparseable in the *middle* of the file: corruption, hard error.
    path.write_text('{"event": "ok"}\nnot json\n{"event": "ok"}\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_trace(path)
    # A complete line of the wrong shape is a hard error even at the end.
    path.write_text('{"no_event_key": 1}\n')
    with pytest.raises(ValueError, match="not a trace event"):
        read_trace(path)


def test_read_trace_tolerates_truncated_final_line(tmp_path):
    # A crash mid-write tears at most the last line (the log flushes per
    # line); the reader warns and keeps every complete event before it.
    path = tmp_path / "torn.jsonl"
    path.write_text('{"event": "a"}\n{"event": "b"}\n{"event": "c", "tim')
    with pytest.warns(UserWarning, match="truncated final line"):
        events = read_trace(path)
    assert [event["event"] for event in events] == ["a", "b"]


def _sample_events():
    return [
        {
            "event": "activation",
            "time": 1.0,
            "source": "service",
            "backlog": 8,
            "batch_size": 8,
            "mode": "normal",
            "scheduler_seconds": 0.02,
            "carried": 3,
            "filled": 5,
            "evaluations": 120,
            "scheduled": 8,
        },
        {"event": "shed", "time": 1.5, "backlog": 64},
        {
            "event": "activation",
            "time": 2.0,
            "source": "service",
            "backlog": 4,
            "batch_size": 4,
            "mode": "degraded",
            "scheduler_seconds": 0.001,
            "scheduled": 4,
        },
        {"event": "mode_transition", "time": 2.1, "transition": "recover"},
        {"event": "shed", "time": 3.0, "backlog": 64},
    ]


def test_activation_rows_and_event_counts():
    events = _sample_events()
    headers, rows = activation_rows(events)
    assert headers[0] == "#"
    assert len(rows) == 2
    assert rows[0][0] == 0 and rows[1][0] == 1
    mode_column = headers.index("mode")
    assert [row[mode_column] for row in rows] == ["normal", "degraded"]
    scheduled_column = headers.index("scheduled")
    assert sum(row[scheduled_column] for row in rows) == 12
    assert event_counts(events) == {"shed": 2, "mode_transition": 1}


def test_summarize_trace_renders_tables(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceLog(path) as log:
        for event in _sample_events():
            log.emit(**event)
    text = summarize_trace(path)
    assert "Activations (2)" in text
    assert "Point events" in text
    assert "shed" in text and "mode_transition" in text
    assert "degraded" in text

    limited = summarize_trace(path, limit=1)
    assert "Activations (1 of 2 shown)" in limited
    # The summarizer also works straight from parsed events.
    assert summarize_events(_sample_events()) == text


def test_tracelog_is_thread_safe(tmp_path):
    path = tmp_path / "race.jsonl"
    log = TraceLog(path)
    per_thread = 200

    def work(worker: int) -> None:
        for n in range(per_thread):
            log.emit("activation", worker=worker, n=n)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    log.close()
    events = read_trace(path)
    assert len(events) == 4 * per_thread
    assert log.events_written == 4 * per_thread


def test_emit_many_writes_one_line_per_record():
    buffer = io.StringIO()
    log = TraceLog(buffer)
    log.emit_many(
        "job_batched",
        [{"job_id": 1, "seq": 7}, {"job_id": 2, "seq": 7}],
    )
    log.emit_many("job_batched", [])  # empty batch: no lines, no error
    records = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [r["event"] for r in records] == ["job_batched", "job_batched"]
    assert [r["job_id"] for r in records] == [1, 2]
    assert log.events_written == 2


def test_max_bytes_guard_warns_once_and_drops(tmp_path):
    path = tmp_path / "capped.jsonl"
    log = TraceLog(path, max_bytes=120)
    log.emit("activation", time=1.0, backlog=8)
    assert log.events_written == 1 and log.events_dropped == 0
    # The event that would push the log past the cap trips the guard —
    # exactly one warning, then silent drops.
    with pytest.warns(UserWarning, match="max_bytes=120") as caught:
        for n in range(5):
            log.emit("activation", time=2.0 + n, backlog=8)
        log.emit("activation", time=99.0)
    assert len(caught) == 1
    written = log.events_written
    assert written >= 1
    assert written + log.events_dropped == 7
    assert log.events_dropped >= 1
    assert log.bytes_written <= 120
    log.close()
    # Everything on disk is still whole lines; nothing was torn mid-write.
    assert len(read_trace(path)) == written


def test_rotate_resets_the_guard_and_truncates_in_place(tmp_path):
    path = tmp_path / "rotating.jsonl"
    log = TraceLog(path, max_bytes=80)
    with pytest.warns(UserWarning, match="max_bytes"):
        for n in range(10):
            log.emit("activation", time=float(n))
    dropped = log.events_dropped
    assert dropped > 0
    log.rotate()  # path-backed: truncate and reopen the same file
    log.emit("activation", time=100.0)
    log.close()
    events = read_trace(path)
    assert [event["time"] for event in events] == [100.0]
    assert log.bytes_written > 0
    # The drop counter is cumulative across segments (it is a health
    # indicator, not a per-segment stat).
    assert log.events_dropped == dropped


def test_rotate_to_new_target_and_error_cases(tmp_path):
    first = tmp_path / "seg1.jsonl"
    second = tmp_path / "seg2.jsonl"
    log = TraceLog(first, max_bytes=10_000)
    log.emit("activation", time=1.0)
    log.rotate(second)
    log.emit("activation", time=2.0)
    log.close()
    assert [e["time"] for e in read_trace(first)] == [1.0]
    assert [e["time"] for e in read_trace(second)] == [2.0]
    # A borrowed handle has nowhere to rotate to without an explicit target.
    borrowed = TraceLog(io.StringIO())
    with pytest.raises(ValueError, match="borrows its handle"):
        borrowed.rotate()
    borrowed.rotate(io.StringIO())  # explicit target is fine
    borrowed.close()
    with pytest.raises(ValueError, match="closed"):
        borrowed.rotate()
