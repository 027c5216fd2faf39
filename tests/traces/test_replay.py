"""Tests for the replay arena (deterministic workers=0 mode) and the report."""

import pickle

import numpy as np
import pytest

from repro.core.config import ArenaConfig, TraceConfig
from repro.grid import GridSimulator, HeuristicBatchPolicy
from repro.traces.generators import generate_trace
from repro.traces.replay import (
    INHERIT_HORIZON,
    PolicySpec,
    ReplayArena,
    cma_policy_spec,
    heuristic_policy_spec,
    policy_spec_from_name,
)
from repro.traces.report import arena_table, summarize_arena


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        TraceConfig(family="calm", duration=25.0, rate=1.0, nb_machines=3), seed=5
    )


#: Deterministic (iteration-bound) metaheuristic budget for arena tests.
BUDGET = dict(max_seconds=60.0, max_iterations=3)


class TestPolicySpecs:
    def test_spec_builds_fresh_policies(self):
        spec = cma_policy_spec(**BUDGET)
        first, second = spec.build(), spec.build()
        assert first is not second
        assert first.service is not second.service

    def test_specs_are_picklable(self):
        for spec in (
            heuristic_policy_spec("min_min"),
            cma_policy_spec(warm=False, **BUDGET),
            cma_policy_spec(commit_horizon=5.0, **BUDGET),
        ):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.name == spec.name
            assert clone.build().name == spec.build().name

    def test_horizon_inherit_and_override(self):
        arena = ArenaConfig(activation_interval=4.0, commit_horizon=8.0)
        inherited = heuristic_policy_spec("mct").simulation_config(arena)
        assert inherited.commit_horizon == 8.0
        overridden = cma_policy_spec(
            commit_horizon=2.0, **BUDGET
        ).simulation_config(arena)
        assert overridden.commit_horizon == 2.0
        full_commit = PolicySpec(
            name="full", factory=heuristic_policy_spec("mct").factory,
            commit_horizon=None,
        ).simulation_config(arena)
        assert full_commit.commit_horizon is None

    def test_bad_horizon_rejected(self):
        factory = heuristic_policy_spec("mct").factory
        with pytest.raises(ValueError):
            PolicySpec(name="x", factory=factory, commit_horizon=-1.0)
        with pytest.raises(ValueError):
            PolicySpec(name="x", factory=factory, commit_horizon="later")

    def test_policy_spec_from_name(self):
        assert policy_spec_from_name("min_min").name == "min_min"
        assert policy_spec_from_name("cma").name == "cma"
        assert policy_spec_from_name("warm_cma").name == "warm-cma"
        rolling = policy_spec_from_name("warm-cma-rolling", horizon=6.0)
        assert rolling.commit_horizon == 6.0
        with pytest.raises(ValueError, match="commit horizon"):
            policy_spec_from_name("warm-cma-rolling")
        with pytest.raises(ValueError, match="unknown policy"):
            policy_spec_from_name("magic")


class TestArenaValidation:
    def test_needs_specs(self, trace):
        with pytest.raises(ValueError):
            ReplayArena(trace, [])

    def test_duplicate_names_rejected(self, trace):
        specs = [heuristic_policy_spec("mct"), heuristic_policy_spec("mct")]
        with pytest.raises(ValueError, match="unique"):
            ReplayArena(trace, specs)

    def test_worker_count_must_match(self, trace):
        specs = [heuristic_policy_spec("mct"), heuristic_policy_spec("min_min")]
        with pytest.raises(ValueError, match="workers"):
            ReplayArena(trace, specs, ArenaConfig(workers=1))


class TestArenaRuns:
    def test_every_policy_replays_every_repetition(self, trace):
        specs = [
            heuristic_policy_spec("min_min"),
            cma_policy_spec(warm=False, **BUDGET),
            cma_policy_spec(**BUDGET),
        ]
        config = ArenaConfig(activation_interval=5.0, repetitions=2, seed=9)
        result = ReplayArena(trace, specs, config).run()
        assert result.policy_names == ["min_min", "cma", "warm-cma"]
        for name in result.policy_names:
            runs = result.metrics_of(name)
            assert len(runs) == 2
            for metrics in runs:
                assert metrics.completed_jobs == trace.nb_jobs

    def test_arena_is_deterministic(self, trace):
        specs = [heuristic_policy_spec("min_min"), cma_policy_spec(warm=False, **BUDGET)]
        config = ArenaConfig(activation_interval=5.0, repetitions=2, seed=9)
        first = ReplayArena(trace, specs, config).run()
        second = ReplayArena(trace, specs, config).run()
        for name in first.policy_names:
            for a, b in zip(first.metrics_of(name), second.metrics_of(name)):
                assert a.makespan == b.makespan
                assert a.total_flowtime == b.total_flowtime

    def test_adding_a_policy_never_perturbs_the_others(self, trace):
        """Seed streams are keyed by policy name, not roster position."""
        config = ArenaConfig(activation_interval=5.0, seed=9)
        small = ReplayArena(trace, [cma_policy_spec(warm=False, **BUDGET)], config).run()
        big = ReplayArena(
            trace,
            [heuristic_policy_spec("min_min"), cma_policy_spec(warm=False, **BUDGET)],
            config,
        ).run()
        assert (
            small.metrics_of("cma")[0].makespan == big.metrics_of("cma")[0].makespan
        )

    def test_arena_matches_direct_simulation(self, trace):
        """The arena adds orchestration, not semantics."""
        from repro.utils.rng import substream_seed_sequence

        config = ArenaConfig(activation_interval=5.0, seed=4)
        result = ReplayArena(trace, [heuristic_policy_spec("mct")], config).run()
        direct = GridSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("mct"),
            heuristic_policy_spec("mct").simulation_config(config),
            rng=substream_seed_sequence(4, "mct", 0),
        ).run()
        assert result.metrics_of("mct")[0].makespan == direct.makespan
        assert result.metrics_of("mct")[0].total_flowtime == direct.total_flowtime

    def test_per_policy_horizon_changes_the_replay(self, trace):
        """A rolling-horizon twin really runs under its own commit horizon."""
        specs = [
            cma_policy_spec(name="warm-full", **BUDGET),
            cma_policy_spec(
                name="warm-rolling", commit_horizon=5.0, **BUDGET
            ),
        ]
        config = ArenaConfig(activation_interval=5.0, seed=9)
        result = ReplayArena(trace, specs, config).run()
        full = result.metrics_of("warm-full")[0]
        rolling = result.metrics_of("warm-rolling")[0]
        assert full.completed_jobs == rolling.completed_jobs == trace.nb_jobs
        # Full commit never revisits a placement; the rolling horizon does
        # (its activation count reflects the re-planning cadence).
        assert rolling.nb_activations >= full.nb_activations


class TestReport:
    def test_summaries_and_table(self, trace):
        specs = [
            heuristic_policy_spec("min_min"),
            heuristic_policy_spec("mct"),
            cma_policy_spec(warm=False, **BUDGET),
        ]
        config = ArenaConfig(activation_interval=5.0, repetitions=2, seed=9)
        result = ReplayArena(trace, specs, config).run()
        reports = {report.policy: report for report in summarize_arena(result)}
        assert set(reports) == {"min_min", "mct", "cma"}
        best = min(reports.values(), key=lambda r: r.makespan.mean)
        assert best.p_value is None
        others = [r for r in reports.values() if r.policy != best.policy]
        assert all(r.p_value is not None and 0.0 <= r.p_value <= 1.0 for r in others)
        for report in reports.values():
            assert report.repetitions == 2
            assert report.completed_jobs == trace.nb_jobs
            assert 0.0 <= report.mean_utilization <= 1.0
            assert report.p50_scheduler_seconds <= report.p95_scheduler_seconds + 1e-12
            row = report.as_dict()
            assert row["policy"] == report.policy
            assert np.isfinite(row["makespan_mean"])

        table = arena_table(result)
        for name in reports:
            assert name in table
        assert "stream makespan" in table
        assert "p vs best" in table

    def test_single_repetition_has_no_p_value(self, trace):
        """One repetition gives no variance estimate, hence no Welch test."""
        from repro.traces.report import arena_rows

        specs = [heuristic_policy_spec("min_min"), heuristic_policy_spec("mct")]
        config = ArenaConfig(activation_interval=5.0, repetitions=1, seed=9)
        result = ReplayArena(trace, specs, config).run()
        reports = summarize_arena(result)
        assert all(r.p_value is None for r in reports)
        columns = {row[-1] for row in arena_rows(result)}
        assert columns == {"best", "n/a"}

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            summarize_arena({})
