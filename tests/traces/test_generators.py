"""Tests for the deterministic scenario-family generators."""

import numpy as np
import pytest

from repro.core.config import TRACE_FAMILIES, TraceConfig
from repro.traces.generators import (
    TRACE_GENERATORS,
    generate_trace,
    list_trace_families,
    rescale_trace,
)

#: A fast configuration shared by the per-family checks.
FAST = dict(duration=30.0, rate=1.0, nb_machines=4)


def test_registry_matches_config_families():
    """The config layer's mirrored family names stay in sync with the registry."""
    assert set(list_trace_families()) == set(TRACE_FAMILIES)
    assert set(TRACE_GENERATORS) == set(TRACE_FAMILIES)


@pytest.mark.parametrize("family", TRACE_FAMILIES)
class TestEveryFamily:
    def test_deterministic_under_seed(self, family):
        config = TraceConfig(family=family, churn_fraction=0.25, **FAST)
        first = generate_trace(config, seed=11)
        second = generate_trace(config, seed=11)
        np.testing.assert_array_equal(first.job_arrivals, second.job_arrivals)
        np.testing.assert_array_equal(first.job_workloads, second.job_workloads)
        np.testing.assert_array_equal(first.machine_mips, second.machine_mips)
        np.testing.assert_array_equal(first.machine_leaves, second.machine_leaves)

    def test_different_seeds_differ(self, family):
        config = TraceConfig(family=family, **FAST)
        first = generate_trace(config, seed=11)
        second = generate_trace(config, seed=12)
        assert (
            first.nb_jobs != second.nb_jobs
            or not np.array_equal(first.job_arrivals, second.job_arrivals)
        )

    def test_trace_shape(self, family):
        config = TraceConfig(family=family, affinity_spread=0.3, **FAST)
        trace = generate_trace(config, seed=5)
        assert trace.nb_machines == 4
        assert np.all(np.diff(trace.job_arrivals) >= 0)
        assert np.all(trace.job_arrivals <= config.duration)
        assert np.all(trace.job_workloads > 0)
        assert np.all(trace.machine_affinity_spreads == 0.3)
        assert trace.metadata["family"] == family
        assert trace.metadata["seed"] == 5
        # Job ids run 0..n-1 in arrival order (the arrivals are sorted).
        np.testing.assert_array_equal(trace.job_ids, np.arange(trace.nb_jobs))

    def test_rate_controls_count(self, family):
        low = generate_trace(TraceConfig(family=family, **{**FAST, "rate": 0.5}), seed=2)
        high = generate_trace(TraceConfig(family=family, **{**FAST, "rate": 5.0}), seed=2)
        assert high.nb_jobs > low.nb_jobs

    def test_without_churn_every_machine_stays(self, family):
        trace = generate_trace(TraceConfig(family=family, **FAST), seed=2)
        assert np.all(trace.machine_joins == 0.0)
        assert np.all(np.isinf(trace.machine_leaves))

    def test_simulation_consumes_trace(self, family):
        from repro.grid import GridSimulator, HeuristicBatchPolicy, SimulationConfig

        config = TraceConfig(family=family, churn_fraction=0.25, **FAST)
        trace = generate_trace(config, seed=3)
        metrics = GridSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=10.0),
            rng=3,
        ).run()
        assert metrics.completed_jobs == trace.nb_jobs


def test_churn_produces_leave_events():
    config = TraceConfig(
        family="flash_crowd", churn_fraction=0.9, nb_machines=8, duration=30.0, rate=1.0
    )
    trace = generate_trace(config, seed=2)
    events = trace.machine_events()
    assert any(event.event == "leave" for event in events)
    # Machine 0 always stays (the grid must never be empty).
    assert not np.isfinite(trace.machine_leaves[0])


def test_heavy_tail_is_heavier_than_calm():
    """Pareto sizes: the max/median workload ratio dwarfs the uniform family's."""
    heavy = generate_trace(
        TraceConfig(family="heavy_tail", duration=400.0, rate=1.0, nb_machines=2),
        seed=13,
    )
    calm = generate_trace(
        TraceConfig(family="calm", duration=400.0, rate=1.0, nb_machines=2), seed=13
    )
    ratio = lambda w: float(w.max() / np.median(w))  # noqa: E731
    assert ratio(heavy.job_workloads) > 2.0 * ratio(calm.job_workloads)


def test_bursty_rate_stays_budget_comparable():
    """The MMPP's long-run arrival count is within 2x of the calm family's."""
    config = dict(duration=2000.0, rate=1.0, nb_machines=2)
    bursty = generate_trace(TraceConfig(family="bursty", **config), seed=7)
    calm = generate_trace(TraceConfig(family="calm", **config), seed=7)
    assert 0.5 < bursty.nb_jobs / calm.nb_jobs < 2.0


def test_flash_crowd_spikes_cluster():
    """Flash arrivals concentrate: the busiest window dwarfs the mean load."""
    trace = generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=100.0,
            rate=0.5,
            nb_machines=2,
            extra={"nb_flashes": 1, "flash_size": 40, "flash_window": 2.0},
        ),
        seed=21,
    )
    counts, _ = np.histogram(trace.job_arrivals, bins=np.arange(0.0, 102.0, 2.0))
    assert counts.max() >= 10 * max(1.0, counts.mean())


def test_churn_can_strike_mid_stream():
    """Some churn departures land inside the submission window, so spikes
    (and arrivals generally) can meet a shrinking park."""
    config = TraceConfig(
        family="flash_crowd", churn_fraction=0.9, nb_machines=8, duration=30.0, rate=1.0
    )
    trace = generate_trace(config, seed=2)
    finite = trace.machine_leaves[np.isfinite(trace.machine_leaves)]
    assert finite.size
    assert finite.min() <= config.duration


@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_unknown_extra_knob_rejected(family):
    with pytest.raises(ValueError, match="unknown extra"):
        generate_trace(
            TraceConfig(family=family, extra={"burst_facto": 3.0}, **FAST), seed=1
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"family": "tsunami"},
        {"rate": 0.0},
        {"job_heterogeneity": "medium"},
        {"machine_heterogeneity": "medium"},
    ],
    ids=lambda bad: next(iter(bad)),
)
def test_unknown_family_rejected_by_config(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        TraceConfig(**bad)


@pytest.mark.parametrize(
    "knob, column",
    [("job_heterogeneity", "job_workloads"), ("machine_heterogeneity", "machine_mips")],
)
def test_heterogeneity_scales_sizes_and_mips(knob, column):
    """hi draws larger job sizes / machine capacities than lo."""
    config = TraceConfig(duration=100.0, rate=2.0, nb_machines=30)
    hi = generate_trace(config.evolve(**{knob: "hi"}), seed=4)
    lo = generate_trace(config.evolve(**{knob: "lo"}), seed=4)
    assert getattr(hi, column).mean() > getattr(lo, column).mean()


class TestRescaleTrace:
    def make(self):
        return generate_trace(
            TraceConfig(family="calm", churn_fraction=0.5, **FAST), seed=5
        )

    def test_compresses_the_timeline(self):
        trace = self.make()
        fast = rescale_trace(trace, 4.0)
        np.testing.assert_allclose(fast.job_arrivals, trace.job_arrivals / 4.0)
        np.testing.assert_allclose(fast.machine_joins, trace.machine_joins / 4.0)
        # Workloads are untouched: only *when*, never *how much*.
        np.testing.assert_array_equal(fast.job_workloads, trace.job_workloads)
        assert fast.name == f"{trace.name}@4x"

    def test_preserves_infinite_leaves(self):
        trace = self.make()
        fast = rescale_trace(trace, 2.0)
        stays = ~np.isfinite(trace.machine_leaves)
        assert stays.any()  # churn leaves some machines forever
        np.testing.assert_array_equal(~np.isfinite(fast.machine_leaves), stays)
        np.testing.assert_allclose(
            fast.machine_leaves[~stays], trace.machine_leaves[~stays] / 2.0
        )

    def test_rate_multiplier_metadata_compounds(self):
        trace = self.make()
        twice = rescale_trace(rescale_trace(trace, 2.0), 3.0)
        assert twice.metadata["rate_multiplier"] == pytest.approx(6.0)

    def test_slowdown_is_a_valid_multiplier(self):
        trace = self.make()
        slow = rescale_trace(trace, 0.5, name="slow")
        np.testing.assert_allclose(slow.job_arrivals, trace.job_arrivals * 2.0)
        assert slow.name == "slow"

    @pytest.mark.parametrize("multiplier", [0.0, -1.0])
    def test_nonpositive_multiplier_rejected(self, multiplier):
        with pytest.raises(ValueError, match="multiplier"):
            rescale_trace(self.make(), multiplier)
