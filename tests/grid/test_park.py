"""Unit tests of the machine park both clock domains commit to."""

import numpy as np

from repro.grid.activation import CommitPlan
from repro.grid.park import Park

#: Placement keys by plan row: the park treats them as opaque.
JOBS = [f"job-{k}" for k in range(4)]


def commit(time, placements, nb_columns=1):
    """A plan of ``(column, start, finish)`` placements, grouped by column.

    Row *k* of the plan is placement *k*, so ``JOBS[k]`` is its key.
    """
    columns = np.array([column for column, _, _ in placements], dtype=np.int64)
    starts = np.array([start for _, start, _ in placements], dtype=float)
    finishes = np.array([finish for _, _, finish in placements], dtype=float)
    ends = np.full(nb_columns, time)
    np.maximum.at(ends, columns, finishes)
    return CommitPlan(
        time,
        np.arange(len(placements)),
        columns,
        starts,
        finishes,
        np.bincount(columns, weights=finishes - starts, minlength=nb_columns),
        np.bincount(columns, minlength=nb_columns),
        ends,
    )


def queued(park, position):
    return [JOBS.index(placement.key) for placement in park.queues[position]]


def two_jobs_on_one_machine():
    park = Park(1)
    park.apply(np.array([0]), commit(0.0, [(0, 0.0, 4.0), (0, 4.0, 10.0)]), JOBS)
    return park


class TestPark:
    def test_a_new_park_is_idle(self):
        park = Park(3, up=False)
        assert not park.up.any()
        assert park.busy_until.tolist() == [0.0, 0.0, 0.0]
        assert not park.committed.any()
        assert Park(2).up.all()

    def test_apply_maps_columns_to_park_positions(self):
        park = Park(3)
        plan = commit(1.0, [(0, 1.0, 3.0), (1, 1.0, 2.0)], nb_columns=2)
        park.apply(np.array([2, 0]), plan, JOBS)
        assert queued(park, 2) == [0] and queued(park, 0) == [1]
        assert park.busy_until.tolist() == [2.0, 0.0, 3.0]
        assert park.busy_time.tolist() == [1.0, 0.0, 2.0]
        assert park.completed.tolist() == [1, 0, 1]
        assert park.committed.tolist() == [True, False, True]

    def test_apply_settles_before_it_appends(self):
        park = two_jobs_on_one_machine()
        # Job 0 finished at 4, before this plan's time; job 1 is in flight.
        park.apply(np.array([0]), commit(6.0, [(0, 10.0, 11.0)]), JOBS[2:])
        assert queued(park, 0) == [1, 2]
        assert park.busy_until[0] == 11.0
        assert park.busy_time[0] == 11.0
        assert park.completed[0] == 3

    def test_revoking_twice_credits_once(self):
        park = two_jobs_on_one_machine()
        revoked = park.revoke(0, 6.0)
        assert [placement.key for placement in revoked] == [JOBS[1]]
        # The machine keeps job 0 and the 2 s it ran of job 1.
        assert (park.busy_time[0], park.completed[0], park.busy_until[0]) == (6.0, 1, 6.0)
        assert queued(park, 0) == [0]
        assert park.revoke(0, 7.0) == []
        assert (park.busy_time[0], park.completed[0], park.busy_until[0]) == (6.0, 1, 6.0)

    def test_releasing_a_settled_placement_changes_nothing(self):
        park = two_jobs_on_one_machine()
        before = (park.busy_time.copy(), park.completed.copy(), park.busy_until.copy())
        assert park.release(0, JOBS[0], 5.0) is None  # finished at 4
        assert park.release(0, JOBS[3], 5.0) is None  # never placed here
        after = (park.busy_time, park.completed, park.busy_until)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)
        assert queued(park, 0) == [0, 1]

    def test_release_frees_the_machine_from_the_new_tail(self):
        park = two_jobs_on_one_machine()
        released = park.release(0, JOBS[1], 2.0)
        assert released.key == JOBS[1]
        assert queued(park, 0) == [0]
        assert (park.busy_time[0], park.completed[0], park.busy_until[0]) == (4.0, 1, 4.0)

    def test_utilization_is_capped_at_one(self):
        park = Park(2)
        park.busy_time[:] = [25.0, 150.0]
        assert park.utilization(100.0).tolist() == [0.25, 1.0]
        assert park.utilization(0.0).tolist() == [0.0, 0.0]
