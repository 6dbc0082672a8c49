"""The repro-timeseries/v1 capture: build, serialize, validate, render."""

import pytest

from repro.common.errors import ValidationError
from repro.common.schemas import SCHEMA_KEYS
from repro.timeseries import (
    TimeSeriesSampler,
    capture_payload,
    decode_series,
    load_capture,
    render_capture,
    to_json,
    validate_capture,
)
from repro.timeseries.capture import JSON_SCHEMA


def _sample_sampler() -> TimeSeriesSampler:
    s = TimeSeriesSampler()
    for t in range(6):
        s.sample("flat", float(t), 7.0)
    for t in range(4):
        s.sample("ramp", float(t), float(t) * 1.5)
    s.mark("reallocation", 2.0, label="300fn/2048MB")
    s.mark("phase_done", 3.0, label="tuning")
    return s


class TestPayload:
    def test_schema_and_totals(self):
        payload = capture_payload(_sample_sampler(), meta={"seed": 0})
        assert payload["schema"] == JSON_SCHEMA
        assert payload["meta"] == {"seed": 0}
        assert payload["totals"]["n_series"] == 2
        assert payload["totals"]["n_samples"] == 10
        # flat compresses to 2 points, ramp keeps all 4.
        assert payload["totals"]["n_points"] == 6
        assert payload["totals"]["dropped"] == 0

    def test_registry_agrees_with_module(self):
        """The REP006 registry pins exactly this document's key set."""
        payload = capture_payload(_sample_sampler())
        assert set(payload) == SCHEMA_KEYS[JSON_SCHEMA]

    def test_series_sorted_by_name(self):
        payload = capture_payload(_sample_sampler())
        names = [entry["name"] for entry in payload["series"]]
        assert names == sorted(names)

    def test_delta_encoding_round_trips(self):
        payload = capture_payload(_sample_sampler())
        by_name = {e["name"]: e for e in payload["series"]}
        times, values = decode_series(by_name["ramp"])
        assert times == [0.0, 1.0, 2.0, 3.0]
        assert values == [0.0, 1.5, 3.0, 4.5]

    def test_decode_empty_series(self):
        entry = {"t0_s": 0.0, "dt_s": [], "values": []}
        assert decode_series(entry) == ([], [])

    def test_markers_enumerated(self):
        payload = capture_payload(_sample_sampler())
        assert [m["seq"] for m in payload["markers"]] == [0, 1]
        assert payload["markers"][0]["kind"] == "reallocation"
        assert payload["markers"][0]["label"] == "300fn/2048MB"

    def test_json_round_trip_is_byte_stable(self):
        payload = capture_payload(_sample_sampler(), meta={"seed": 3})
        text = to_json(payload)
        assert text == to_json(load_capture(text))
        assert text.endswith("\n")


class TestValidation:
    def test_load_rejects_bad_json(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_capture("{nope")

    def test_rejects_wrong_schema(self):
        payload = capture_payload(_sample_sampler())
        payload["schema"] = "repro-profile/v1"
        with pytest.raises(ValidationError):
            validate_capture(payload)

    def test_rejects_extra_top_key(self):
        payload = capture_payload(_sample_sampler())
        payload["surprise"] = 1
        with pytest.raises(ValidationError):
            validate_capture(payload)

    def test_rejects_series_key_drift(self):
        payload = capture_payload(_sample_sampler())
        del payload["series"][0]["high_water"]
        with pytest.raises(ValidationError):
            validate_capture(payload)

    def test_rejects_delta_count_mismatch(self):
        payload = capture_payload(_sample_sampler())
        payload["series"][1]["dt_s"] = payload["series"][1]["dt_s"][:-1]
        with pytest.raises(ValidationError):
            validate_capture(payload)

    def test_rejects_marker_key_drift(self):
        payload = capture_payload(_sample_sampler())
        del payload["markers"][0]["seq"]
        with pytest.raises(ValidationError):
            validate_capture(payload)


class TestRender:
    def test_render_mentions_every_series_and_markers(self):
        text = render_capture(capture_payload(_sample_sampler()))
        assert "flat" in text
        assert "ramp" in text
        assert "marker" in text

    def test_render_is_deterministic(self):
        a = render_capture(capture_payload(_sample_sampler()))
        b = render_capture(capture_payload(_sample_sampler()))
        assert a == b
