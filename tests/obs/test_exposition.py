"""Conformance tests: the renderer against the strict exposition parser.

The renderer (:mod:`repro.obs.metrics`) and the parser
(:mod:`repro.obs.exposition`) are independent implementations of the
Prometheus text format 0.0.4; these tests pin the line grammar by making
them agree — and by making the parser reject documents that violate it.
"""

import math

import pytest

from repro.obs import MetricsRegistry, parse_exposition
from repro.obs.exposition import parse_sample_line


def _registry_with_everything() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_plain_total", "A plain counter.", lambda: 3)
    registry.counter(
        "repro_labeled_total",
        "Counter with labels.",
        lambda: {("accepted", "normal"): 5, ("shed", "degraded"): 2},
        labels=("outcome", "mode"),
    )
    registry.gauge("repro_depth", "A gauge.", lambda: 17.5)
    histogram = registry.histogram(
        "repro_lat_seconds", "A histogram.", buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    return registry


def test_render_parse_round_trip():
    registry = _registry_with_everything()
    families = parse_exposition(registry.render())

    assert families["repro_plain_total"].kind == "counter"
    assert families["repro_plain_total"].value() == 3.0
    assert families["repro_plain_total"].help == "A plain counter."
    assert families["repro_labeled_total"].value(
        outcome="accepted", mode="normal"
    ) == 5.0
    assert families["repro_depth"].kind == "gauge"
    assert families["repro_depth"].value() == 17.5
    histogram = families["repro_lat_seconds"]
    assert histogram.kind == "histogram"
    assert histogram.value(sample_name="repro_lat_seconds_count") == 4.0
    assert histogram.value(sample_name="repro_lat_seconds_sum") == pytest.approx(5.555)
    assert histogram.value(sample_name="repro_lat_seconds_bucket", le="0.1") == 2.0
    assert histogram.value(sample_name="repro_lat_seconds_bucket", le="+Inf") == 4.0


def test_label_value_escaping_round_trips():
    registry = MetricsRegistry()
    hostile = 'quote " backslash \\ newline \n end'
    registry.counter("repro_escape_total", "Escapes.", lambda: {(hostile,): 1}, labels=("name",))
    text = registry.render()
    # The rendered document stays one-line-per-sample...
    sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(sample_lines) == 1
    # ...and the parser recovers the original value exactly.
    name, labels, value = parse_sample_line(sample_lines[0])
    assert name == "repro_escape_total"
    assert labels == {"name": hostile}
    assert value == 1.0
    assert parse_exposition(text)["repro_escape_total"].value(name=hostile) == 1.0


def test_special_float_values_render_and_parse():
    registry = MetricsRegistry()
    current = [0.0]
    registry.gauge("repro_special", "Specials.", lambda: current[0])
    for raw, expected in ((math.inf, math.inf), (-math.inf, -math.inf)):
        current[0] = raw
        value = parse_exposition(registry.render())["repro_special"].value()
        assert value == expected
    current[0] = math.nan
    value = parse_exposition(registry.render())["repro_special"].value()
    assert math.isnan(value)


def test_help_and_type_precede_samples_once_each():
    registry = _registry_with_everything()
    lines = registry.render().splitlines()
    seen: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("# HELP "):
            seen.setdefault(line.split()[2], []).append("help")
        elif line.startswith("# TYPE "):
            seen.setdefault(line.split()[2], []).append("type")
    for name, order in seen.items():
        assert order == ["help", "type"], name


def test_parser_rejects_grammar_violations():
    bad_documents = [
        # Sample before any TYPE/HELP block.
        "repro_x_total 1\n",
        # _bucket sample under a counter family.
        "# TYPE repro_x_total counter\nrepro_x_total_bucket{le=\"1.0\"} 1\n",
        # Duplicate sample.
        "# TYPE repro_x counter\nrepro_x 1\nrepro_x 2\n",
        # Second TYPE.
        "# TYPE repro_x counter\n# TYPE repro_x counter\nrepro_x 1\n",
        # Unknown kind.
        "# TYPE repro_x flurble\nrepro_x 1\n",
        # Trailing timestamp token (the strict parser refuses it).
        "# TYPE repro_x counter\nrepro_x 1 1700000000\n",
        # Invalid escape in a label value.
        '# TYPE repro_x counter\nrepro_x{a="\\q"} 1\n',
        # Missing final newline.
        "# TYPE repro_x counter\nrepro_x 1",
        # Invalid metric name.
        "# TYPE 0bad counter\n0bad 1\n",
    ]
    for document in bad_documents:
        with pytest.raises(ValueError):
            parse_exposition(document)


def test_parser_rejects_histogram_inconsistencies():
    non_cumulative = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="0.1"} 3\n'
        'repro_h_bucket{le="+Inf"} 2\n'
        "repro_h_sum 1.0\n"
        "repro_h_count 2\n"
    )
    with pytest.raises(ValueError, match="cumulative"):
        parse_exposition(non_cumulative)

    missing_inf = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="0.1"} 1\n'
        "repro_h_sum 1.0\n"
        "repro_h_count 1\n"
    )
    with pytest.raises(ValueError, match=r"\+Inf"):
        parse_exposition(missing_inf)

    count_mismatch = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="+Inf"} 1\n'
        "repro_h_sum 1.0\n"
        "repro_h_count 2\n"
    )
    with pytest.raises(ValueError, match="_count"):
        parse_exposition(count_mismatch)

    missing_sum = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="+Inf"} 1\n'
        "repro_h_count 1\n"
    )
    with pytest.raises(ValueError, match="_sum"):
        parse_exposition(missing_sum)


def test_bucket_monotonicity_of_rendered_histograms():
    registry = _registry_with_everything()
    families = parse_exposition(registry.render())
    histogram = families["repro_lat_seconds"]
    buckets = sorted(
        (float("inf") if dict(labels)["le"] == "+Inf" else float(dict(labels)["le"]), v)
        for (sample, labels), v in histogram.samples.items()
        if sample.endswith("_bucket")
    )
    values = [v for _, v in buckets]
    assert values == sorted(values)
    assert values[-1] == histogram.value(sample_name="repro_lat_seconds_count")
