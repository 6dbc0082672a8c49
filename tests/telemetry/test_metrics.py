"""Tests for the metric instruments and the registry."""

import pytest

from repro.common.errors import ValidationError
from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("events_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("events_total")
        with pytest.raises(ValidationError):
            c.inc(-1.0)

    def test_labels_create_independent_children(self):
        c = MetricsRegistry().counter("ops_total", labelnames=("kind",))
        c.labels(kind="s3").inc(3)
        c.labels(kind="vmps").inc(1)
        snap = c.snapshot()
        assert {tuple(s.labels.items()): s.value for s in snap.samples} == {
            (("kind", "s3"),): 3.0,
            (("kind", "vmps"),): 1.0,
        }

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("ops_total", labelnames=("kind",))
        with pytest.raises(ValidationError):
            c.labels(wrong="x")
        with pytest.raises(ValidationError):
            c.inc()  # labeled family has no unlabeled child


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("occupancy")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == pytest.approx(12.0)


class TestHistogram:
    def test_bucket_assignment(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 0.9, 3.0, 7.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        (sample,) = snap.samples
        assert sample.buckets == (2, 1, 2)  # <=1, <=5, +Inf
        assert sample.count == 5
        assert sample.sum == pytest.approx(111.4)

    def test_boundary_value_counts_in_its_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 5.0))
        h.observe(1.0)
        (sample,) = h.snapshot().samples
        assert sample.buckets == (1, 0, 0)  # le="1.0" is inclusive

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().histogram("lat", buckets=(5.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")

    def test_namespace_prefixes_names(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("a_total").inc()
        assert [s.name for s in reg.snapshot()] == ["repro_a_total"]

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z_total")
        reg.counter("a_total")
        assert [s.name for s in reg.snapshot()] == ["a_total", "z_total"]

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled
        assert not NullRegistry().enabled


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        reg = NullRegistry()
        c = reg.counter("a_total", labelnames=("k",))
        c.inc()
        c.labels(k="v").inc(5)
        reg.gauge("g").set(3)
        reg.histogram("h").observe(1.0)
        assert reg.snapshot() == []
        assert reg.get("a_total") is None

    def test_shared_instrument_instance(self):
        """The null registry hands out one singleton — zero allocation."""
        reg = NullRegistry()
        assert reg.counter("a") is reg.counter("b") is reg.gauge("c")


class TestSnapshotImmutability:
    def test_snapshot_is_a_point_in_time_copy(self):
        c = MetricsRegistry().counter("a_total")
        c.inc()
        snap = c.snapshot()
        c.inc()
        assert snap.samples[0].value == 1.0

    def test_counter_is_counter_type(self):
        assert isinstance(MetricsRegistry().counter("a_total"), Counter)
        assert isinstance(MetricsRegistry().histogram("h"), Histogram)
