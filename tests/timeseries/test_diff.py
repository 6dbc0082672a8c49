"""Cross-run diffing: per-series classification and the drift verdict."""

import pytest

from repro.common.errors import ValidationError
from repro.common.schemas import SCHEMA_KEYS
from repro.timeseries import (
    TimeSeriesSampler,
    capture_payload,
    diff_captures,
    diff_to_json,
    has_drift,
    render_diff,
)
from repro.timeseries.diff import _TOP_KEYS, DIFF_SCHEMA


def _capture(points: dict[str, list[tuple[float, float]]]) -> dict:
    s = TimeSeriesSampler()
    for name, series in points.items():
        for t, v in series:
            s.sample(name, t, v)
    return capture_payload(s)


RAMP = [(float(t), float(t)) for t in range(6)]


class TestClassification:
    def test_identical(self):
        report = diff_captures(_capture({"a": RAMP}), _capture({"a": RAMP}))
        assert report["series"][0]["class"] == "identical"
        assert not has_drift(report)

    def test_added_and_missing(self):
        report = diff_captures(
            _capture({"a": RAMP}), _capture({"b": RAMP})
        )
        by_name = {row["name"]: row["class"] for row in report["series"]}
        assert by_name == {"a": "missing", "b": "added"}
        assert report["summary"]["drifted"] == ["a", "b"]
        assert has_drift(report)

    def test_level_shift(self):
        base = _capture({"a": [(t, 10.0 + t) for t in range(6)]})
        # Mean rises well past 5%, peak pinned to the base's high water.
        target = _capture(
            {"a": [(t, 14.0 + t / 5.0) for t in range(5)] + [(5.0, 15.0)]}
        )
        report = diff_captures(base, target)
        assert report["series"][0]["class"] == "level_shift"
        assert has_drift(report)

    def test_peak_shift(self):
        base = _capture({"a": [(0.0, 10.0), (1.0, 10.2), (2.0, 10.0)]})
        target = _capture({"a": [(0.0, 10.0), (1.0, 13.0), (2.0, 7.2)]})
        report = diff_captures(base, target)
        assert report["series"][0]["class"] == "peak_shift"

    def test_divergent(self):
        base = _capture({"a": RAMP})
        target = _capture({"a": [(t, 10.0 * t) for t in range(6)]})
        report = diff_captures(base, target)
        assert report["series"][0]["class"] == "divergent"

    def test_resampled(self):
        base = _capture({"a": [(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)]})
        target = _capture(
            {"a": [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (2.0, 1.0)]}
        )
        report = diff_captures(base, target)
        assert report["series"][0]["class"] == "resampled"
        assert not has_drift(report)

    def test_jitter(self):
        base = _capture({"a": [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]})
        target = _capture({"a": [(0.0, 1.0), (1.0, 2.01), (2.0, 1.5)]})
        report = diff_captures(base, target)
        assert report["series"][0]["class"] == "jitter"
        assert not has_drift(report)

    def test_threshold_is_tunable(self):
        base = _capture({"a": [(0.0, 10.0), (1.0, 10.0)]})
        target = _capture({"a": [(0.0, 11.0), (1.0, 11.0)]})
        strict = diff_captures(base, target, threshold=0.05)
        loose = diff_captures(base, target, threshold=0.5)
        assert strict["series"][0]["class"] == "divergent"
        assert loose["series"][0]["class"] == "jitter"


class TestReport:
    def test_schema_registry_agrees(self):
        assert SCHEMA_KEYS[DIFF_SCHEMA] == _TOP_KEYS
        report = diff_captures(_capture({"a": RAMP}), _capture({"a": RAMP}))
        assert report["schema"] == DIFF_SCHEMA
        assert set(report) == _TOP_KEYS

    def test_rejects_invalid_capture(self):
        with pytest.raises(ValidationError):
            diff_captures({"schema": "nope"}, _capture({"a": RAMP}))

    def test_json_and_render_deterministic(self):
        base, target = _capture({"a": RAMP, "b": RAMP}), _capture({"a": RAMP})
        a = diff_captures(base, target, meta={"base": "x", "target": "y"})
        b = diff_captures(base, target, meta={"base": "x", "target": "y"})
        assert diff_to_json(a) == diff_to_json(b)
        assert render_diff(a) == render_diff(b)
        assert "missing" in render_diff(a)
        assert "drift detected: b" in render_diff(a)

    def test_summary_counts(self):
        report = diff_captures(
            _capture({"a": RAMP, "b": RAMP}),
            _capture({"a": RAMP, "c": RAMP}),
        )
        assert report["summary"]["classes"] == {
            "added": 1, "identical": 1, "missing": 1,
        }
        assert report["summary"]["n_series"] == 3
