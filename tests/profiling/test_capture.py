"""The repro-profile/v1 capture: build, serialize, validate, render."""

import pytest

from repro.common.errors import ValidationError
from repro.profiling import (
    Profiler,
    capture_payload,
    load_capture,
    render_capture,
    to_json,
    validate_capture,
)
from repro.profiling.capture import JSON_SCHEMA

from tests.profiling.test_core import FakeClock


def _sample_profiler() -> Profiler:
    prof = Profiler(clock=FakeClock())
    with prof.phase("outer") as ph:
        ph.add("items", 10)
        with prof.phase("inner"):
            pass
        with prof.phase("inner"):
            pass
    with prof.phase("solo"):
        pass
    return prof


class TestPayload:
    def test_schema_and_totals(self):
        payload = capture_payload(_sample_profiler(), meta={"seed": 0})
        assert payload["schema"] == JSON_SCHEMA
        assert payload["meta"] == {"seed": 0}
        assert payload["totals"]["n_frames"] == 3
        assert payload["totals"]["n_calls"] == 4
        assert payload["totals"]["dropped_events"] == 0
        # wall_s sums only the top-level (depth-1) frames.
        depth1 = [f for f in payload["frames"] if f["depth"] == 1]
        assert payload["totals"]["wall_s"] == pytest.approx(
            sum(f["total_s"] for f in depth1)
        )

    def test_self_time_excludes_children(self):
        # FakeClock: every phase enter/exit pair costs exactly 1s of
        # "time", and the two inner phases run inside outer.
        payload = capture_payload(_sample_profiler())
        by_path = {f["path"]: f for f in payload["frames"]}
        outer = by_path["outer"]
        inner = by_path["outer;inner"]
        assert inner["n_calls"] == 2
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"]
        )

    def test_frames_sorted_by_path(self):
        payload = capture_payload(_sample_profiler())
        paths = [f["path"] for f in payload["frames"]]
        assert paths == sorted(paths)

    def test_counters_carried_per_frame(self):
        payload = capture_payload(_sample_profiler())
        by_path = {f["path"]: f for f in payload["frames"]}
        assert by_path["outer"]["counters"] == {"items": 10.0}
        assert by_path["solo"]["counters"] == {}


class TestRoundTrip:
    def test_json_round_trip_is_byte_stable(self):
        payload = capture_payload(_sample_profiler(), meta={"k": "v"})
        text = to_json(payload)
        assert text == to_json(load_capture(text))
        assert text.endswith("\n")

    def test_load_rejects_bad_json(self):
        with pytest.raises(ValidationError):
            load_capture("{not json")

    def test_validate_rejects_wrong_schema(self):
        payload = capture_payload(_sample_profiler())
        payload["schema"] = "repro-profile/v999"
        with pytest.raises(ValidationError):
            validate_capture(payload)

    def test_validate_rejects_extra_top_level_key(self):
        payload = capture_payload(_sample_profiler())
        payload["surprise"] = 1
        with pytest.raises(ValidationError):
            validate_capture(payload)

    def test_validate_rejects_frame_missing_keys(self):
        payload = capture_payload(_sample_profiler())
        del payload["frames"][0]["self_s"]
        with pytest.raises(ValidationError):
            validate_capture(payload)


class TestSchemaRegistry:
    def test_capture_keys_match_rep006_registry(self):
        """The writer emits exactly the registry's keys, which the loader
        checks."""
        from repro.common.schemas import SCHEMA_KEYS

        payload = capture_payload(_sample_profiler())
        assert set(payload) == SCHEMA_KEYS[JSON_SCHEMA]
        validate_capture(payload)

    def test_diff_schema_registered_too(self):
        from repro.common.schemas import SCHEMA_KEYS
        from repro.runs.compare import COMPARE_SCHEMA, compare

        payload = capture_payload(_sample_profiler())
        report = compare("profile", payload, payload)
        assert set(report) == SCHEMA_KEYS[COMPARE_SCHEMA]


class TestRender:
    def test_render_lists_frames_widest_first(self):
        text = render_capture(capture_payload(_sample_profiler()))
        lines = text.splitlines()
        assert "3 frame(s)" in lines[0]
        body = lines[2:]
        assert body[0].startswith("outer")

    def test_top_limits_rows(self):
        text = render_capture(capture_payload(_sample_profiler()), top=1)
        assert len(text.splitlines()) == 3  # header x2 + one frame

    def test_counters_rendered_with_rates(self):
        text = render_capture(capture_payload(_sample_profiler()))
        assert "items=10" in text
