"""Timeseries captures through the one compare engine: per-series status,
what moved, and the drift exit code."""

import pytest

from repro.common.errors import ValidationError
from repro.common.schemas import SCHEMA_KEYS
from repro.runs.compare import (
    COMPARE_SCHEMA,
    compare,
    compare_to_json,
    exit_code,
    render_compare,
)
from repro.timeseries import TimeSeriesSampler, capture_payload


def _capture(points: dict[str, list[tuple[float, float]]]) -> dict:
    s = TimeSeriesSampler()
    for name, series in points.items():
        for t, v in series:
            s.sample(name, t, v)
    return capture_payload(s)


def _diff(base: dict, target: dict, **params) -> dict:
    return compare("timeseries", base, target, **params)


RAMP = [(float(t), float(t)) for t in range(6)]


class TestClassification:
    def test_identical(self):
        report = _diff(_capture({"a": RAMP}), _capture({"a": RAMP}))
        assert report["rows"][0]["status"] == "identical"
        assert report["verdict"] == "identical"
        assert exit_code(report) == 0

    def test_added_and_missing(self):
        report = _diff(_capture({"a": RAMP}), _capture({"b": RAMP}))
        by_name = {row["key"]: row["status"] for row in report["rows"]}
        assert by_name == {"a": "removed", "b": "added"}
        assert exit_code(report) == 1

    def test_level_shift(self):
        base = _capture({"a": [(t, 10.0 + t) for t in range(6)]})
        # Mean rises well past 5%, peak pinned to the base's high water.
        target = _capture(
            {"a": [(t, 14.0 + t / 5.0) for t in range(5)] + [(5.0, 15.0)]}
        )
        row = _diff(base, target)["rows"][0]
        assert (row["status"], row["moved"]) == ("changed", ["mean"])
        assert exit_code(_diff(base, target)) == 1

    def test_peak_shift(self):
        base = _capture({"a": [(0.0, 10.0), (1.0, 10.2), (2.0, 10.0)]})
        target = _capture({"a": [(0.0, 10.0), (1.0, 13.0), (2.0, 7.2)]})
        row = _diff(base, target)["rows"][0]
        assert (row["status"], row["moved"]) == ("changed", ["peak"])

    def test_divergent(self):
        base = _capture({"a": RAMP})
        target = _capture({"a": [(t, 10.0 * t) for t in range(6)]})
        row = _diff(base, target)["rows"][0]
        assert (row["status"], row["moved"]) == ("changed", ["mean", "peak"])

    def test_resampled(self):
        base = _capture({"a": [(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)]})
        target = _capture(
            {"a": [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (2.0, 1.0)]}
        )
        report = _diff(base, target)
        row = report["rows"][0]
        assert (row["status"], row["moved"], row["resampled"]) == ("noise", [], True)
        assert exit_code(report) == 0

    def test_jitter(self):
        base = _capture({"a": [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]})
        target = _capture({"a": [(0.0, 1.0), (1.0, 2.01), (2.0, 1.5)]})
        report = _diff(base, target)
        row = report["rows"][0]
        assert (row["status"], row["moved"], row["resampled"]) == ("noise", [], False)
        assert exit_code(report) == 0

    def test_threshold_is_tunable(self):
        base = _capture({"a": [(0.0, 10.0), (1.0, 10.0)]})
        target = _capture({"a": [(0.0, 11.0), (1.0, 11.0)]})
        strict = _diff(base, target, threshold=0.05)
        loose = _diff(base, target, threshold=0.5)
        assert strict["rows"][0]["moved"] == ["mean", "peak"]
        assert loose["rows"][0]["status"] == "noise"
        assert (exit_code(strict), exit_code(loose)) == (1, 0)


class TestReport:
    def test_schema_registry_agrees(self):
        report = _diff(_capture({"a": RAMP}), _capture({"a": RAMP}))
        assert report["schema"] == COMPARE_SCHEMA
        assert report["kind"] == "timeseries"
        assert set(report) == SCHEMA_KEYS[COMPARE_SCHEMA]

    def test_rejects_invalid_capture(self):
        with pytest.raises(ValidationError):
            _diff({"schema": "nope"}, _capture({"a": RAMP}))

    def test_json_and_render_deterministic(self):
        base, target = _capture({"a": RAMP, "b": RAMP}), _capture({"a": RAMP})
        a = compare("timeseries", base, target, meta={"base": "x", "target": "y"})
        b = compare("timeseries", base, target, meta={"base": "x", "target": "y"})
        assert compare_to_json(a) == compare_to_json(b)
        assert render_compare(a) == render_compare(b)
        assert "< removed b" in render_compare(a)
        assert "verdict: INDETERMINATE" in render_compare(a)

    def test_summary_counts(self):
        report = _diff(
            _capture({"a": RAMP, "b": RAMP}),
            _capture({"a": RAMP, "c": RAMP}),
        )
        assert {s: n for s, n in report["counts"].items() if n} == {
            "added": 1, "identical": 1, "removed": 1,
        }
        assert len(report["rows"]) == 3
