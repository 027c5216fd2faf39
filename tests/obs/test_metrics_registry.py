"""Unit tests for the dependency-free metrics registry."""

import math
import threading

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry, NULL_REGISTRY


class Owner:
    """Something that keeps its own count, as every instrumented layer does."""

    def __init__(self):
        self.jobs = 0


def test_counter_reads_its_owner_at_render_time():
    registry = MetricsRegistry()
    owner = Owner()
    registry.counter("repro_test_total", "A test counter.", lambda: owner.jobs)
    assert registry.get_sample_value("repro_test_total") == 0.0
    owner.jobs += 3
    # Nothing was pushed: the render reads the owner's count as it is now.
    assert registry.get_sample_value("repro_test_total") == 3.0
    assert "# TYPE repro_test_total counter" in registry.render()


def test_gauge_reads_the_current_value():
    registry = MetricsRegistry()
    depth = [7.0]
    registry.gauge("repro_test_depth", "A test gauge.", lambda: depth[0])
    assert registry.get_sample_value("repro_test_depth") == 7.0
    depth[0] = -2.0
    assert registry.get_sample_value("repro_test_depth") == -2.0
    assert "# TYPE repro_test_depth gauge" in registry.render()


def test_histogram_buckets_sum_count():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_test_seconds", "A test histogram.", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 5.0, 50.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(55.55)
    # The +Inf bound is appended automatically.
    assert histogram.buckets == (0.1, 1.0, 10.0, math.inf)
    assert registry.get_sample_value(
        "repro_test_seconds_bucket", {"le": "1.0"}
    ) == 2.0
    assert registry.get_sample_value(
        "repro_test_seconds_bucket", {"le": "+Inf"}
    ) == 4.0


def test_histogram_default_buckets_and_validation():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_default_seconds", "Defaults.")
    assert histogram.buckets[:-1] == DEFAULT_BUCKETS
    assert math.isinf(histogram.buckets[-1])
    with pytest.raises(ValueError):
        registry.histogram("repro_bad_seconds", "Bad.", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("repro_empty_seconds", "Bad.", buckets=())


def test_labeled_reads_render_sorted_and_validate():
    registry = MetricsRegistry()
    registry.counter(
        "repro_jobs_total",
        "Jobs by path.",
        lambda: {("warm",): 3, ("cold",): 1},
        labels=("path",),
    )
    assert registry.get_sample_value("repro_jobs_total", {"path": "warm"}) == 3.0
    assert registry.get_sample_value("repro_jobs_total", {"path": "cold"}) == 1.0
    lines = [line for line in registry.render().splitlines() if not line.startswith("#")]
    assert lines == ['repro_jobs_total{path="cold"} 1.0', 'repro_jobs_total{path="warm"} 3.0']
    # A read keyed by the wrong number of label values is a programming error.
    registry.counter("repro_bad_total", "Bad.", lambda: {("a", "b"): 1}, labels=("path",))
    with pytest.raises(ValueError):
        registry.render()


def test_histogram_labels_create_children_and_validate():
    registry = MetricsRegistry()
    family = registry.histogram("repro_lat_seconds", "By path.", labels=("path",))
    family.labels(path="warm").observe(0.5)
    # Same label set -> same child.
    assert family.labels(path="warm") is family.labels(path="warm")
    # Wrong label names are a programming error.
    with pytest.raises(ValueError):
        family.labels(mode="warm")
    # Direct observe on a labeled family must go through .labels(...).
    with pytest.raises(ValueError):
        family.observe(1.0)


def test_owners_of_one_name_sum_and_mismatches_fail():
    registry = MetricsRegistry()
    owners = [Owner(), Owner()]
    owners[0].jobs, owners[1].jobs = 2, 5
    for owner in owners:
        registry.counter(
            "repro_twice_total",
            "Summed.",
            lambda owner=owner: {("x",): owner.jobs, (str(owner.jobs),): 1},
            labels=("label",),
        )
    assert registry.get_sample_value("repro_twice_total", {"label": "x"}) == 7.0
    assert registry.get_sample_value("repro_twice_total", {"label": "2"}) == 1.0
    assert registry.get_sample_value("repro_twice_total", {"label": "5"}) == 1.0
    with pytest.raises(ValueError):
        registry.gauge("repro_twice_total", "Different kind.", lambda: 0)
    with pytest.raises(ValueError):
        registry.counter("repro_twice_total", "Different labels.", lambda: 0)
    first = registry.histogram("repro_once_seconds", "Once.")
    assert registry.histogram("repro_once_seconds", "Twice.") is first


def test_invalid_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("0bad", "Starts with a digit.", lambda: 0)
    with pytest.raises(ValueError):
        registry.counter("bad-name", "Dash is not allowed.", lambda: 0)
    with pytest.raises(ValueError):
        registry.counter("repro_ok_total", "Bad label.", lambda: {}, labels=("0bad",))
    with pytest.raises(ValueError):
        registry.counter("repro_ok_total", "Reserved label.", lambda: {}, labels=("__x",))


def test_null_registry_ignores_registrations():
    def never():
        raise AssertionError("the null registry must not read")

    NULL_REGISTRY.counter("repro_anything_total", "Ignored.", never)
    NULL_REGISTRY.gauge("repro_anything", "Ignored.", never)
    histogram = NULL_REGISTRY.histogram("repro_anything_seconds", "Ignored.")
    # One shared no-op histogram, labels included.
    assert histogram is NULL_REGISTRY.histogram("repro_other_seconds", "Ignored.")
    assert histogram.labels(outcome="x") is histogram
    histogram.observe(0.5)
    assert NULL_REGISTRY.render() == ""
    assert NULL_REGISTRY.enabled is False
    assert MetricsRegistry().enabled is True


def test_thread_safety_under_concurrent_observations():
    registry = MetricsRegistry()
    by_worker = registry.histogram(
        "repro_race_worker_seconds", "Raced.", labels=("worker",), buckets=(0.5, 1.0)
    )
    histogram = registry.histogram(
        "repro_race_seconds", "Raced.", buckets=(0.5, 1.0)
    )
    rounds = 2_000

    def work(worker: int) -> None:
        child = by_worker.labels(worker=str(worker))
        for _ in range(rounds):
            child.observe(0.25)
            histogram.observe(0.25)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for worker in range(4):
        assert by_worker.labels(worker=str(worker)).count == rounds
    # All four threads observed into the one unlabeled child.
    assert histogram.count == 4 * rounds
    assert registry.get_sample_value(
        "repro_race_seconds_bucket", {"le": "0.5"}
    ) == 4 * rounds
