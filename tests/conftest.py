"""Shared fixtures for the test suite.

Tests run on deliberately tiny instances (tens of jobs, a handful of
machines) with iteration- or evaluation-based budgets so the whole suite is
fast and fully deterministic; the benchmark harness is where realistic sizes
and wall-clock budgets live.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import time

import numpy as np
import pytest

from repro.model.fitness import FitnessEvaluator
from repro.model.generator import ETCGeneratorConfig, generate_instance
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule


#: Hang bound for one ``smoke``-marked file, as wall-clock seconds.
SMOKE_FILE_TIMEOUT = 300.0
_REAL_STDERR = pytest.StashKey[int]()
_SMOKE_DEADLINES = pytest.StashKey[dict]()


def pytest_configure(config: pytest.Config) -> None:
    # Duplicated before any test output capture starts, so a hang report
    # reaches the terminal instead of a discarded capture buffer.
    config.stash[_REAL_STDERR] = os.dup(sys.stderr.fileno())
    config.stash[_SMOKE_DEADLINES] = {}


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_REAL_STDERR])


@pytest.fixture(autouse=True)
def smoke_hang_guard(request: pytest.FixtureRequest):
    """Bound every ``smoke`` file at :data:`SMOKE_FILE_TIMEOUT` seconds.

    The smoke files drive whole subsystems end to end (worker processes,
    the live service on the wall clock), so a deadlock there would stall
    the run.  Past the file's deadline faulthandler dumps every thread's
    stack and exits the process.  The timer is re-armed for each test with
    what is left of its file's budget.
    """
    if request.node.get_closest_marker("smoke") is None:
        yield
        return
    deadline = request.config.stash[_SMOKE_DEADLINES].setdefault(
        request.module.__name__, time.monotonic() + SMOKE_FILE_TIMEOUT
    )
    faulthandler.dump_traceback_later(
        max(deadline - time.monotonic(), 0.001),
        exit=True,
        file=request.config.stash[_REAL_STDERR],
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need randomness."""
    return np.random.default_rng(42)


@pytest.fixture
def tiny_instance() -> SchedulingInstance:
    """A 16-job × 4-machine inconsistent instance (fast unit-test workhorse)."""
    config = ETCGeneratorConfig(
        nb_jobs=16, nb_machines=4, consistency="inconsistent"
    )
    return generate_instance(config, rng=123, name="tiny")


@pytest.fixture
def small_instance() -> SchedulingInstance:
    """A 48-job × 8-machine inconsistent instance for integration-ish tests."""
    config = ETCGeneratorConfig(
        nb_jobs=48, nb_machines=8, consistency="inconsistent"
    )
    return generate_instance(config, rng=456, name="small")


@pytest.fixture
def consistent_instance() -> SchedulingInstance:
    """A consistent 24-job × 6-machine instance."""
    config = ETCGeneratorConfig(nb_jobs=24, nb_machines=6, consistency="consistent")
    return generate_instance(config, rng=789, name="consistent")


@pytest.fixture
def ready_time_instance() -> SchedulingInstance:
    """An instance whose machines start with non-zero ready times."""
    config = ETCGeneratorConfig(nb_jobs=20, nb_machines=5, consistency="inconsistent")
    base = generate_instance(config, rng=321, name="ready")
    ready = np.linspace(10.0, 50.0, base.nb_machines)
    return SchedulingInstance(etc=base.etc, ready_times=ready, name="ready")


@pytest.fixture
def evaluator() -> FitnessEvaluator:
    """A fresh fitness evaluator with the paper's λ."""
    return FitnessEvaluator()


@pytest.fixture
def random_schedule(tiny_instance) -> Schedule:
    """A random (but deterministic) schedule on the tiny instance."""
    return Schedule.random(tiny_instance, rng=7)
