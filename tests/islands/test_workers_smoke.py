"""Smoke tests that actually spawn island worker processes.

Marked ``smoke``, so a hard timeout guards them: if the queue/shared-memory
protocol ever deadlocks, the parent's ``worker_timeout`` (and ultimately the
smoke hang guard in ``tests/conftest.py``) turns the hang into a failure
instead of a stuck job.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.config import CMAConfig, IslandConfig
from repro.core.termination import TerminationCriteria
from repro.experiments.runner import cma_spec
from repro.islands import IslandModel, MigrationBoard
from repro.islands.migration import EmigrantParcel
from repro.model.benchmark import generate_braun_like_instance

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def instance():
    return generate_braun_like_instance("u_c_hihi.0", rng=1, nb_jobs=24, nb_machines=4)


SPEC = cma_spec(CMAConfig.fast_defaults())
TERMINATION = TerminationCriteria(max_seconds=math.inf, max_evaluations=500)


class TestMigrationBoard:
    def test_publish_read_round_trip(self):
        board = MigrationBoard(nb_islands=2, nb_emigrants=2, nb_jobs=6)
        try:
            parcel = EmigrantParcel(
                assignments=np.arange(12, dtype=np.int64).reshape(2, 6) % 3,
                fitnesses=np.array([1.5, 2.5]),
            )
            board.publish(0, parcel)
            seq, received = board.read(0, last_seq=0)
            assert seq == 1
            assert np.array_equal(received.assignments, parcel.assignments)
            assert np.array_equal(received.fitnesses, parcel.fitnesses)
            # Unchanged mailbox: the reader skips the copy.
            seq_again, nothing = board.read(0, last_seq=seq)
            assert seq_again == seq
            assert nothing is None
        finally:
            board.close()
            board.unlink()

    def test_attach_by_name_sees_published_rows(self):
        owner = MigrationBoard(nb_islands=1, nb_emigrants=1, nb_jobs=4)
        try:
            owner.publish(
                0,
                EmigrantParcel(
                    assignments=np.array([[1, 0, 1, 0]], dtype=np.int64),
                    fitnesses=np.array([3.0]),
                ),
            )
            attached = MigrationBoard(
                nb_islands=1, nb_emigrants=1, nb_jobs=4, name=owner.name, untrack=False
            )
            try:
                _, parcel = attached.read(0, last_seq=0)
                assert np.array_equal(
                    parcel.assignments, np.array([[1, 0, 1, 0]])
                )
            finally:
                attached.close()
        finally:
            owner.close()
            owner.unlink()


class TestTwoWorkerSmoke:
    def test_spawned_islands_with_migration_complete(self, instance):
        config = IslandConfig(
            nb_islands=2,
            topology="ring",
            migration_interval=150.0,
            workers=2,
            worker_timeout=120.0,
        )
        model = IslandModel(instance, SPEC, config, TERMINATION, rng=7)
        result = model.run()
        assert len(model.island_results) == 2
        assert np.isfinite(result.best_fitness)
        assert result.evaluations >= 2 * 500
        assert len(result.metadata["per_island"]) == 2

    def test_workers_match_in_process_when_independent(self, instance):
        """No migration + deterministic budgets: both modes are bit-identical."""
        spawned = IslandModel(
            instance,
            SPEC,
            IslandConfig(
                nb_islands=2, migration_interval=None, workers=2, worker_timeout=120.0
            ),
            TERMINATION,
            rng=11,
        )
        spawned.run()
        in_process = IslandModel(
            instance,
            SPEC,
            IslandConfig(nb_islands=2, migration_interval=None, workers=0),
            TERMINATION,
            rng=11,
        )
        in_process.run()
        for worker_result, local_result in zip(
            spawned.island_results, in_process.island_results
        ):
            assert worker_result.best_fitness == local_result.best_fitness
            assert worker_result.evaluations == local_result.evaluations
            assert np.array_equal(
                np.asarray(worker_result.best_schedule.assignment),
                np.asarray(local_result.best_schedule.assignment),
            )


@dataclass(frozen=True)
class _ExplodingSpec:
    """A picklable spec whose scheduler construction always fails."""


    name: str = "exploding"

    def build(self, instance, termination, rng=None, engine=None):
        raise ValueError("scheduler construction failed on purpose")


class TestWorkerFailure:
    def test_worker_error_propagates_fast(self, instance):
        config = IslandConfig(
            nb_islands=2, migration_interval=None, workers=2, worker_timeout=120.0
        )
        model = IslandModel(instance, _ExplodingSpec(), config, TERMINATION, rng=1)
        with pytest.raises(RuntimeError, match="worker failed"):
            model.run()
