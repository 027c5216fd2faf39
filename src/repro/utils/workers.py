"""One daemon process per task, results gathered through one queue.

The worker launcher of the island model and the replay arena.
"""

from __future__ import annotations

import multiprocessing
import queue
import traceback
from multiprocessing.context import BaseContext
from typing import Any, Callable, Hashable, Mapping

__all__ = ["worker_context", "run_workers"]


def worker_context(start_method: str | None = None) -> BaseContext:
    """The multiprocessing context of *start_method* (default: fork where available)."""
    if start_method is None:
        available = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(start_method)


def _run_task(target: Callable[..., Any], key: Hashable, args: tuple, results: Any) -> None:
    """Worker side: put ``(key, "ok", target(*args))`` or the traceback on *results*.

    The traceback goes out before the exception propagates, so the parent
    fails fast instead of waiting for its timeout.
    """
    try:
        results.put((key, "ok", target(*args)))
    except BaseException:
        results.put((key, "error", traceback.format_exc()))
        raise


def run_workers(
    context: BaseContext,
    target: Callable[..., Any],
    tasks: Mapping[Hashable, tuple],
    timeout: float,
    noun: str,
) -> dict[Hashable, Any]:
    """Run ``target(*args)`` in one daemon process per task.

    *tasks* maps each task key to its arguments; each worker puts
    ``(key, "ok", result)``, or ``(key, "error", traceback_text)`` when
    *target* raises, on one results queue.  Returns the results by key.
    Raises :class:`RuntimeError` with the worker's traceback when one
    fails, or when no message arrives within *timeout* seconds; the
    processes are terminated and joined either way.  *noun* names the
    workers in messages and process names.
    """
    results = context.Queue()
    processes = []
    collected: dict[Hashable, Any] = {}
    try:
        for key, args in tasks.items():
            process = context.Process(
                target=_run_task,
                args=(target, key, args, results),
                name=f"{noun}-{key}",
                daemon=True,
            )
            processes.append(process)
            process.start()
        while len(collected) < len(tasks):
            try:
                key, status, payload = results.get(timeout=timeout)
            except queue.Empty:
                raise RuntimeError(
                    f"{noun} workers timed out after {timeout}s "
                    f"({len(collected)}/{len(tasks)} results received); "
                    f"terminating the pool"
                ) from None
            if status == "error":
                raise RuntimeError(f"{noun} {key!r} worker failed:\n{payload}")
            collected[key] = payload
        for process in processes:
            process.join(timeout=timeout)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
    return collected
