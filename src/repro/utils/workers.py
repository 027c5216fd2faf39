"""One daemon process per task, results gathered through one queue.

The worker launcher of the island model and the replay arena.
"""

from __future__ import annotations

import multiprocessing
import queue
from multiprocessing.context import BaseContext
from typing import Any, Callable, Hashable, Mapping

__all__ = ["worker_context", "run_workers"]


def worker_context(start_method: str | None = None) -> BaseContext:
    """The multiprocessing context of *start_method* (default: fork where available)."""
    if start_method is None:
        available = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(start_method)


def run_workers(
    context: BaseContext,
    target: Callable[..., None],
    tasks: Mapping[Hashable, tuple],
    timeout: float,
    noun: str,
) -> dict[Hashable, Any]:
    """Run ``target(*args, results)`` in one daemon process per task.

    *tasks* maps each task key to its arguments; the worker puts
    ``(key, "ok", payload)`` or ``(key, "error", traceback_text)`` on the
    *results* queue.  Returns the payloads by key.  Raises
    :class:`RuntimeError` with the worker's traceback when one fails, or
    when no message arrives within *timeout* seconds; the processes are
    terminated and joined either way.  *noun* names the workers in
    messages and process names.
    """
    results = context.Queue()
    processes = []
    collected: dict[Hashable, Any] = {}
    try:
        for key, args in tasks.items():
            process = context.Process(
                target=target, args=(*args, results), name=f"{noun}-{key}", daemon=True
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
