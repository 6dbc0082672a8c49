"""SeriesBuffer compression, sampler bookkeeping, null-object default."""

from repro.timeseries import (
    NullSampler,
    SeriesBuffer,
    TimeSeriesSampler,
    capture_payload,
    get_sampler,
    set_sampler,
)


class TestSeriesBuffer:
    def test_appends_points_in_order(self):
        buf = SeriesBuffer("x")
        buf.append(1.0, 10.0)
        buf.append(2.0, 11.0)
        assert buf.times == [1.0, 2.0]
        assert buf.values == [10.0, 11.0]
        assert buf.n_samples == 2

    def test_run_length_compression_keeps_edges(self):
        """A run of equal values stores only its first and last point."""
        buf = SeriesBuffer("x")
        for t in range(10):
            buf.append(float(t), 5.0)
        assert buf.values == [5.0, 5.0]
        # The run's last point tracks how long the value held.
        assert buf.times == [0.0, 9.0]
        assert buf.n_samples == 10
        assert buf.dropped == 0

    def test_compression_preserves_step_edges(self):
        buf = SeriesBuffer("x")
        for t, v in enumerate([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]):
            buf.append(float(t), v)
        assert buf.values == [1.0, 1.0, 2.0, 2.0]
        assert buf.times == [0.0, 2.0, 3.0, 5.0]

    def test_point_cap_counts_drops(self):
        buf = SeriesBuffer("x", max_points=3)
        for t in range(6):
            buf.append(float(t), float(t))  # strictly increasing: no runs
        assert len(buf) == 3
        assert buf.dropped == 3
        assert buf.n_samples == 6

    def test_high_water_survives_compression_and_drops(self):
        buf = SeriesBuffer("x", max_points=2)
        buf.append(0.0, 1.0)
        buf.append(1.0, 2.0)
        buf.append(2.0, 99.0)  # dropped by the cap, still the peak
        assert buf.dropped == 1
        assert buf.high_water == 99.0

    def test_last_of_empty_series(self):
        assert SeriesBuffer("x").last == float("-inf")


class TestTimeSeriesSampler:
    def test_sample_creates_series_lazily(self):
        s = TimeSeriesSampler()
        s.sample("a", 1.0, 2)
        assert set(s.series) == {"a"}
        assert s.series["a"].values == [2.0]  # coerced to float

    def test_high_water_defaults_to_zero(self):
        # The capture carries each series' peak: 0.0 for a series with no
        # points, the largest sample otherwise, negative ones included.
        s = TimeSeriesSampler()
        s.series["missing"] = SeriesBuffer("missing")
        s.sample("a", 0.0, -3.0)
        series = capture_payload(s)["series"]
        assert {e["name"]: e["high_water"] for e in series} == {
            "a": -3.0, "missing": 0.0,
        }

    def test_marker_cap(self):
        s = TimeSeriesSampler(max_markers=2)
        for i in range(4):
            s.mark("k", float(i))
        assert len(s.markers) == 2
        assert s.dropped_markers == 2

    def test_n_points_sums_stored_points(self):
        s = TimeSeriesSampler()
        s.sample("a", 0.0, 1.0)
        s.sample("b", 0.0, 1.0)
        s.sample("b", 1.0, 2.0)
        assert s.n_points() == 3

    def test_enabled_flags(self):
        assert TimeSeriesSampler().enabled
        assert not NullSampler().enabled


class TestGlobalSampler:
    def test_default_is_null_and_inert(self):
        sampler = get_sampler()
        assert isinstance(sampler, NullSampler)
        assert not sampler.enabled
        sampler.sample("a", 0.0, 1.0)
        sampler.mark("k", 0.0)
        assert sampler.series == {}
        assert sampler.markers == []

    def test_set_and_restore(self):
        mine = TimeSeriesSampler()
        prev = get_sampler()
        set_sampler(mine)
        try:
            assert get_sampler() is mine
            assert get_sampler().enabled
        finally:
            set_sampler(prev)
        assert not get_sampler().enabled

    def test_set_none_reinstalls_null(self):
        set_sampler(TimeSeriesSampler())
        set_sampler(None)
        assert isinstance(get_sampler(), NullSampler)
