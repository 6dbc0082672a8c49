"""Tests for Prometheus text exposition and the JSON round trip."""

import json
import re

import pytest

from repro.telemetry.exporters import (
    from_json_payload,
    snapshots_to_payload,
    to_json,
    to_prometheus_text,
)
from repro.telemetry.metrics import MetricsRegistry

# Prometheus text exposition format 0.0.4 line shapes.
_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)
_COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", "Requests", labelnames=("kind", "op"))\
        .labels(kind="s3", op="get").inc(7)
    reg.counter("requests_total", labelnames=("kind", "op"))\
        .labels(kind="vmps", op="put").inc(2)
    reg.gauge("occupancy", "Slots in use").set(12)
    h = reg.histogram("latency_seconds", "Latency", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    return reg


class TestPrometheusText:
    def test_every_line_parses(self):
        text = to_prometheus_text(_populated_registry().snapshot())
        for line in text.strip().splitlines():
            assert _COMMENT_LINE.match(line) or _METRIC_LINE.match(line), line

    def test_counter_gauge_and_histogram_series_present(self):
        text = to_prometheus_text(_populated_registry().snapshot())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{kind="s3",op="get"} 7' in text
        assert '# TYPE occupancy gauge' in text
        assert 'occupancy 12' in text
        assert '# TYPE latency_seconds histogram' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert 'latency_seconds_count 4' in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus_text(_populated_registry().snapshot())
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'latency_seconds_bucket\{le="[^"]+"\} (\d+)', text
            )
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf bucket equals total count

    def test_empty_registry_exports_empty(self):
        assert to_prometheus_text(MetricsRegistry().snapshot()) == ""

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("k",)).labels(k='a"b\\c').inc()
        text = to_prometheus_text(reg.snapshot())
        assert r'c_total{k="a\"b\\c"} 1' in text


class TestJsonRoundTrip:
    def test_snapshots_survive_round_trip(self):
        payload = snapshots_to_payload(_populated_registry().snapshot())
        assert json.loads(json.dumps(payload)) == payload

    def test_document_round_trip(self):
        reg = _populated_registry()
        doc = to_json(
            reg.snapshot(),
            run={"jct_s": 12.5, "cost_usd": 0.5},
            meta={"command": "train", "workload": "lr-higgs"},
        )
        payload = from_json_payload(doc)
        assert payload["run"]["jct_s"] == 12.5
        assert payload["meta"]["command"] == "train"
        assert payload["metrics"] == snapshots_to_payload(reg.snapshot())

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            from_json_payload(json.dumps({"schema": "other/v9"}))
