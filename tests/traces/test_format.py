"""Tests for the versioned trace schema, persistence, and recorded runs."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    GridJob,
    GridMachine,
    GridSimulator,
    HeuristicBatchPolicy,
    SimulationConfig,
)
from repro.traces.format import (
    TRACE_FORMAT_VERSION,
    Trace,
    load_trace,
    save_trace,
)


def make_trace(nb_jobs=5, nb_machines=3, churn=True, name="t"):
    arrivals = np.linspace(0.0, 20.0, nb_jobs)
    leaves = np.full(nb_machines, np.inf)
    joins = np.zeros(nb_machines)
    if churn and nb_machines > 1:
        joins[-1] = 3.0
        leaves[-1] = 40.0
    return Trace(
        name=name,
        job_ids=np.arange(nb_jobs, dtype=np.int64),
        job_workloads=np.linspace(50.0, 500.0, nb_jobs),
        job_arrivals=arrivals,
        machine_ids=np.arange(nb_machines, dtype=np.int64),
        machine_mips=np.linspace(5.0, 20.0, nb_machines),
        machine_joins=joins,
        machine_leaves=leaves,
        machine_affinity_spreads=np.zeros(nb_machines),
        metadata={"family": "test", "seed": 1},
    )


class TestTraceSchema:
    def test_views(self):
        trace = make_trace()
        assert trace.nb_jobs == 5
        assert trace.nb_machines == 3
        jobs = trace.to_jobs()
        machines = trace.to_machines()
        assert [job.job_id for job in jobs] == list(range(5))
        assert machines[-1].join_time == 3.0
        assert machines[-1].leave_time == 40.0
        assert machines[0].leave_time is None

    def test_machine_events_ordered(self):
        trace = make_trace()
        events = trace.machine_events()
        kinds = [(event.event, event.machine_id) for event in events]
        # Joins at t=0 for machines 0 and 1, the late join at t=3, the
        # leave at t=40 — chronological, joins before leaves.
        assert kinds == [("join", 0), ("join", 1), ("join", 2), ("leave", 2)]
        assert [event.time for event in events] == [0.0, 0.0, 3.0, 40.0]

    def test_duration_is_last_arrival(self):
        assert make_trace().duration == 20.0

    @pytest.mark.parametrize(
        "mutation",
        [
            dict(job_ids=np.array([0, 0, 2, 3, 4])),
            dict(machine_ids=np.array([0, 0, 2])),
            dict(job_workloads=np.array([1.0, -1.0, 1.0, 1.0, 1.0])),
            dict(job_arrivals=np.array([5.0, 1.0, 2.0, 3.0, 4.0])),
            dict(machine_mips=np.array([0.0, 1.0, 1.0])),
            dict(machine_joins=np.array([0.0, 0.0, 50.0])),  # join after leave
            dict(machine_affinity_spreads=np.array([0.0, 0.0, -0.5])),
        ],
    )
    def test_invalid_traces_rejected(self, mutation):
        with pytest.raises(ValueError):
            dataclasses.replace(make_trace(), **mutation)

    def test_empty_machine_park_rejected(self):
        with pytest.raises(ValueError):
            make_trace(nb_machines=0, churn=False)


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        trace = make_trace()
        path = save_trace(trace, tmp_path / "trace")
        assert path.suffix == ".npz"
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.metadata == trace.metadata
        for field in (
            "job_ids",
            "job_workloads",
            "job_arrivals",
            "machine_ids",
            "machine_mips",
            "machine_joins",
            "machine_leaves",
            "machine_affinity_spreads",
        ):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(trace, field))

    def test_wrong_version_rejected(self, tmp_path):
        trace = make_trace()
        path = trace.save(tmp_path / "trace.npz")
        # Rewrite the header with a future version.
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(str(arrays["header"]))
        header["version"] = TRACE_FORMAT_VERSION + 1
        arrays["header"] = np.array(json.dumps(header))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace(path)

    def test_non_trace_file_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, data=np.arange(3))
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(path)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_save_load_property(self, tmp_path_factory, data):
        """Arbitrary valid traces survive persistence bit-exactly."""
        nb_jobs = data.draw(st.integers(min_value=0, max_value=8))
        nb_machines = data.draw(st.integers(min_value=1, max_value=4))
        finite = st.floats(
            min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
        )
        arrivals = np.sort(
            np.array(data.draw(st.lists(finite, min_size=nb_jobs, max_size=nb_jobs)))
        )
        workloads = np.array(
            data.draw(st.lists(finite, min_size=nb_jobs, max_size=nb_jobs))
        )
        mips = np.array(
            data.draw(st.lists(finite, min_size=nb_machines, max_size=nb_machines))
        )
        churny = data.draw(st.booleans())
        joins = np.zeros(nb_machines)
        leaves = np.full(nb_machines, np.inf)
        if churny:
            leaves[0] = 1e7
        trace = Trace(
            name=data.draw(st.text(max_size=12)),
            job_ids=np.arange(nb_jobs, dtype=np.int64),
            job_workloads=workloads,
            job_arrivals=arrivals,
            machine_ids=np.arange(nb_machines, dtype=np.int64),
            machine_mips=mips,
            machine_joins=joins,
            machine_leaves=leaves,
            machine_affinity_spreads=np.zeros(nb_machines),
            metadata={"note": data.draw(st.text(max_size=12))},
        )
        path = trace.save(tmp_path_factory.mktemp("traces") / "prop")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.metadata == trace.metadata
        np.testing.assert_array_equal(loaded.job_workloads, trace.job_workloads)
        np.testing.assert_array_equal(loaded.job_arrivals, trace.job_arrivals)
        np.testing.assert_array_equal(loaded.machine_mips, trace.machine_mips)
        np.testing.assert_array_equal(loaded.machine_leaves, trace.machine_leaves)


def _workload():
    jobs = [
        GridJob(job_id=i, workload=100.0 + 40.0 * i, arrival_time=2.0 * i)
        for i in range(8)
    ]
    machines = [
        GridMachine(machine_id=0, mips=10.0, affinity_spread=0.2),
        GridMachine(machine_id=1, mips=15.0),
        GridMachine(machine_id=2, mips=8.0, leave_time=12.0),
    ]
    return jobs, machines


def _recorded(simulator: GridSimulator, name: str = "recorded") -> Trace:
    """The trace of a simulator's workload, as ``simulate --out`` saves it."""
    return Trace.from_simulation(simulator.jobs, simulator.machines, name=name)


class TestRecorder:
    def test_recorder_captures_workload_and_metrics(self):
        jobs, machines = _workload()
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=4.0),
            rng=1,
        )
        metrics = simulator.run()
        trace = _recorded(simulator, name="captured")
        assert trace.nb_jobs == len(jobs)
        assert trace.nb_machines == len(machines)
        # The affinity spread (the ETC seed of the inconsistent scenarios)
        # survives capture.
        assert trace.machine_affinity_spreads[0] == 0.2
        # The simulator's event log is a prefix-compatible subset of the
        # trace's full schedule (the leave occurred, so both agree here).
        assert metrics.machine_events == trace.machine_events()

    def test_recorded_replay_is_bit_exact(self):
        """Record a live run, replay the trace: identical stream metrics."""
        jobs, machines = _workload()
        config = SimulationConfig(activation_interval=4.0, commit_horizon=4.0)
        simulator = GridSimulator(jobs, machines, HeuristicBatchPolicy("min_min"), config, rng=7)
        live = simulator.run()
        replayed = GridSimulator.from_trace(
            _recorded(simulator), HeuristicBatchPolicy("min_min"), config, rng=7
        ).run()
        assert replayed.makespan == live.makespan
        assert replayed.total_flowtime == live.total_flowtime
        assert replayed.mean_response_time == live.mean_response_time
        assert replayed.nb_activations == live.nb_activations

    def test_replay_with_job_tracing_on_is_bit_exact(self):
        """The job-lifecycle trace log is a pure observer of the replay.

        Tracing reads clocks, never the simulation's RNG, so a replay with
        per-job tracing on must reproduce the recorded run bit for bit —
        and the trace it writes must fold back into a legal lifecycle DAG
        covering every job.
        """
        import io

        from repro.obs import TraceLog, build_timelines, lifecycle_violations

        jobs, machines = _workload()
        config = SimulationConfig(activation_interval=4.0, commit_horizon=4.0)
        simulator = GridSimulator(jobs, machines, HeuristicBatchPolicy("min_min"), config, rng=7)
        live = simulator.run()
        buffer = io.StringIO()
        replayed = GridSimulator.from_trace(
            _recorded(simulator), HeuristicBatchPolicy("min_min"), config, rng=7,
            trace_log=TraceLog(buffer),
        ).run()
        assert replayed.makespan == live.makespan
        assert replayed.total_flowtime == live.total_flowtime
        assert replayed.mean_response_time == live.mean_response_time
        assert replayed.nb_activations == live.nb_activations
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lifecycle_violations(events) == []
        timelines = build_timelines(events)
        assert len(timelines) == len(jobs)
        assert all(t.terminal == "completed" for t in timelines)

    def test_saved_trace_replay_is_bit_exact(self, tmp_path):
        """The bit-exactness guarantee holds through the on-disk format."""
        jobs, machines = _workload()
        config = SimulationConfig(activation_interval=4.0)
        simulator = GridSimulator(
            jobs, machines, HeuristicBatchPolicy("sufferage"), config, rng=3
        )
        live = simulator.run()
        path = _recorded(simulator).save(tmp_path / "run")
        replayed = GridSimulator.from_trace(
            load_trace(path), HeuristicBatchPolicy("sufferage"), config, rng=3
        ).run()
        assert replayed.makespan == live.makespan
        assert replayed.total_flowtime == live.total_flowtime

    def test_tied_arrivals_replay_in_the_recorded_order(self):
        """Jobs tied on arrival are batched, and recorded, in the caller's order."""
        jobs = [GridJob(1, 300.0, 0.0), GridJob(0, 100.0, 0.0), GridJob(2, 200.0, 0.0)]
        machines = [GridMachine(0, mips=10.0), GridMachine(1, mips=5.0)]
        config = SimulationConfig(activation_interval=4.0)
        simulator = GridSimulator(jobs, machines, HeuristicBatchPolicy("mct"), config, rng=1)
        live = simulator.run()
        trace = _recorded(simulator)
        assert trace.job_ids.tolist() == [1, 0, 2]
        replayed = GridSimulator.from_trace(
            trace, HeuristicBatchPolicy("mct"), config, rng=1
        ).run()
        assert live.makespan == replayed.makespan == 50.0
        assert replayed.total_flowtime == live.total_flowtime

    @pytest.mark.parametrize("heuristic", ["mct", "min_min", "olb", "sufferage"])
    def test_shuffled_ids_on_tied_arrivals_replay_bit_exact(self, heuristic):
        rng = np.random.default_rng(12)
        machines = [GridMachine(k, mips=float(mips)) for k, mips in enumerate((10, 5, 7))]
        config = SimulationConfig(activation_interval=4.0)
        for _ in range(25):
            ids = rng.permutation(12).tolist()
            arrivals = rng.integers(0, 4, size=12).astype(float) * 2.0
            workloads = rng.uniform(50.0, 400.0, size=12).tolist()
            jobs = [GridJob(i, w, t) for i, w, t in zip(ids, workloads, arrivals.tolist())]
            simulator = GridSimulator(
                jobs, machines, HeuristicBatchPolicy(heuristic), config, rng=1
            )
            live = simulator.run()
            replayed = GridSimulator.from_trace(
                _recorded(simulator), HeuristicBatchPolicy(heuristic), config, rng=1
            ).run()
            assert replayed.makespan == live.makespan
            assert replayed.total_flowtime == live.total_flowtime
