"""The sampler inside Instruments: install/restore, capture export, peaks.

The lifecycle every collector shares is parametrized over all capture
kinds in ``tests/runs/test_instruments.py``; these cases pin what is
particular to the time-series sampler.
"""

import pytest

from repro.runs import Instruments
from repro.slo.events import EventBus, get_event_bus, set_event_bus
from repro.timeseries import (
    NullSampler,
    TimeSeriesSampler,
    capture_payload,
    get_sampler,
    load_capture,
    set_sampler,
)


class TestLifecycle:
    def test_inert_without_flags(self):
        ins = Instruments()
        with ins:
            assert isinstance(get_sampler(), NullSampler)
        assert ins.sampler is None
        assert "timeseries" not in ins.texts

    def test_sessions_nest(self):
        with Instruments(kinds={"timeseries"}) as outer:
            with Instruments(kinds={"timeseries"}) as inner:
                assert get_sampler() is inner.sampler
            assert get_sampler() is outer.sampler
        assert isinstance(get_sampler(), NullSampler)

    def test_restores_preexisting_sampler(self):
        mine = TimeSeriesSampler()
        set_sampler(mine)
        try:
            with Instruments(kinds={"timeseries"}):
                assert get_sampler() is not mine
            assert get_sampler() is mine
        finally:
            set_sampler(None)


class TestExport:
    def test_writes_capture_on_clean_exit(self, tmp_path):
        path = tmp_path / "ts.json"
        with Instruments({"seed": 1}, paths={"timeseries": path}) as ins:
            get_sampler().sample("a", 0.0, 1.0)
        payload = load_capture(path.read_text())
        assert payload["meta"] == {"seed": 1}
        assert payload["totals"]["n_series"] == 1
        assert payload == ins.payloads["timeseries"]

    def test_no_capture_over_a_crash(self, tmp_path):
        path = tmp_path / "ts.json"
        with pytest.raises(RuntimeError):
            with Instruments(paths={"timeseries": path}):
                raise RuntimeError("boom")
        assert not path.exists()
        # The previous (null) sampler is still restored.
        assert isinstance(get_sampler(), NullSampler)


class TestBusMarkers:
    def test_live_bus_events_become_markers(self):
        bus = EventBus()
        prev = get_event_bus()
        set_event_bus(bus)
        try:
            with Instruments(kinds={"timeseries"}) as ins:
                bus.emit("epoch_done", 2.5, scope="train")
            marks = [(m.kind, m.t_s, m.label) for m in ins.sampler.markers]
        finally:
            set_event_bus(prev)
        assert marks == [("epoch_done", 2.5, "train")]

    def test_null_bus_is_ignored(self):
        with Instruments(kinds={"timeseries"}) as ins:
            pass
        assert ins.sampler.markers == []


class TestPeaksSummary:
    """The high-water marks of the platform series, as the capture carries
    them; the breakdown's peaks come from the platform gauges, which equal
    them on a sampled run (``tests/diagnostics/test_breakdown.py``)."""

    def test_high_water_marks(self):
        s = TimeSeriesSampler()
        s.sample("platform.inflight", 0.0, 10.0)
        s.sample("platform.inflight", 1.0, 300.0)
        s.sample("platform.warm_pool", 1.0, 42.0)
        assert _peaks(capture_payload(s)) == {
            "platform.inflight": 300.0, "platform.warm_pool": 42.0,
        }

    def test_empty_sampler_yields_zeros(self):
        with Instruments(kinds={"timeseries"}) as ins:
            pass  # nothing ran: no series, and every total is zero
        payload = ins.payloads["timeseries"]
        assert _peaks(payload) == {}
        assert set(payload["totals"].values()) == {0}


def _peaks(payload: dict) -> dict[str, float]:
    return {entry["name"]: entry["high_water"] for entry in payload["series"]}
