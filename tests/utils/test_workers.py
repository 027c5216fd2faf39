"""The shared worker-process launcher: results by key, failures and timeouts."""

import time

import pytest

from repro.utils.workers import run_workers, worker_context


def _square(value):
    return value * value


def _explode():
    raise ValueError("exploded on purpose")


def _silent():
    time.sleep(30.0)


def test_results_come_back_by_key():
    tasks = {"a": (3,), "b": (4,)}
    assert run_workers(worker_context(), _square, tasks, 60.0, "test") == {"a": 9, "b": 16}


def test_a_failed_worker_raises_with_its_traceback():
    with pytest.raises(RuntimeError, match="worker failed") as error:
        run_workers(worker_context(), _explode, {0: ()}, 60.0, "test")
    assert "exploded on purpose" in str(error.value)
    assert "Traceback" in str(error.value)


def test_a_silent_worker_times_out_and_is_terminated():
    with pytest.raises(RuntimeError, match="timed out"):
        run_workers(worker_context(), _silent, {0: ()}, 0.5, "test")
