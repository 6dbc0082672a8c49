"""Profile captures through the one compare engine: statuses,
determinism, the regression exit code."""

import copy

import pytest

from repro.profiling import Profiler, capture_payload
from repro.runs.compare import compare, compare_to_json, exit_code, render_compare

from tests.profiling.test_core import FakeClock


def _capture(extra_phase: str | None = None) -> dict:
    prof = Profiler(clock=FakeClock())
    with prof.phase("planner") as ph:
        ph.add("candidates", 100)
        with prof.phase("warm_start"):
            pass
    if extra_phase:
        with prof.phase(extra_phase):
            pass
    return capture_payload(prof, meta={"workload": "lr-higgs"})


def _scale(payload: dict, path: str, factor: float) -> dict:
    doctored = copy.deepcopy(payload)
    for frame in doctored["frames"]:
        if frame["path"] == path:
            frame["total_s"] *= factor
    return doctored


def _diff(base: dict, target: dict, **params) -> dict:
    return compare("profile", base, target, **params)


def _rows(report: dict) -> dict:
    return {row["key"]: row for row in report["rows"]}


class TestStatuses:
    def test_self_diff_is_all_unchanged(self):
        report = _diff(_capture(), _capture())
        assert {row["status"] for row in report["rows"]} == {"identical"}
        assert report["verdict"] == "identical"
        assert exit_code(report) == 0
        assert report["base"]["wall_s"] == report["target"]["wall_s"]

    def test_slower_target_regresses(self):
        base = _capture()
        report = _diff(base, _scale(base, "planner", 2.0))
        assert _rows(report)["planner"]["status"] == "regressed"
        assert _rows(report)["planner"]["ratio"] == 2.0
        assert report["verdict"] == "regressed"
        assert exit_code(report) == 1

    def test_faster_target_improves(self):
        base = _capture()
        report = _diff(base, _scale(base, "planner", 0.5))
        assert _rows(report)["planner"]["status"] == "improved"
        assert report["verdict"] == "improved"
        assert exit_code(report) == 0

    def test_added_and_removed_frames(self):
        report = _diff(_capture(), _capture(extra_phase="new_pass"))
        assert _rows(report)["new_pass"]["status"] == "added"
        assert report["counts"]["added"] == 1
        reverse = _diff(_capture(extra_phase="new_pass"), _capture())
        assert reverse["counts"]["removed"] == 1
        assert exit_code(report) == 0
        assert report["verdict"] == "indeterminate"

    def test_min_s_filters_timer_noise(self):
        base = _capture()
        # A 10x blowup on a sub-threshold frame must not count.
        tiny = copy.deepcopy(base)
        for frame in tiny["frames"]:
            frame["total_s"] = 1e-5
        report = _diff(tiny, _scale(tiny, "planner", 10.0))
        assert _rows(report)["planner"]["status"] == "noise"
        assert exit_code(report) == 0
        assert exit_code(_diff(tiny, _scale(tiny, "planner", 10.0), min_s=1e-6)) == 1

    def test_threshold_is_respected(self):
        base = _capture()
        target = _scale(base, "planner", 1.3)
        assert exit_code(_diff(base, target, threshold=1.2)) == 1
        loose = _diff(base, target, threshold=1.5)
        assert exit_code(loose) == 0
        assert _rows(loose)["planner"]["status"] == "noise"

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(TypeError, match="min_s"):
            _diff(_capture(), _capture(), min_S=0.1)


class TestCounters:
    def test_counter_deltas_per_frame(self):
        base = _capture()
        target = copy.deepcopy(base)
        for frame in target["frames"]:
            if frame["path"] == "planner":
                frame["counters"]["candidates"] = 140.0
        report = _diff(base, target)
        assert _rows(report)["planner"]["counters"]["candidates"] == {
            "base": 100.0,
            "target": 140.0,
            "delta": 40.0,
            "ratio": 1.4,
        }
        # Same time, different counters: a move below any threshold.
        assert _rows(report)["planner"]["status"] == "noise"


class TestDeterminism:
    def test_json_byte_identical_across_calls(self):
        base, target = _capture(), _capture(extra_phase="new_pass")
        assert compare_to_json(_diff(base, target)) == compare_to_json(
            _diff(base, target)
        )

    def test_frame_order_in_report_ignores_input_order(self):
        base, target = _capture(), _capture()
        shuffled = copy.deepcopy(base)
        shuffled["frames"].reverse()
        assert compare_to_json(_diff(base, target)) == compare_to_json(
            _diff(shuffled, target)
        )


class TestRender:
    def test_regressions_marked(self):
        base = _capture()
        text = render_compare(_diff(base, _scale(base, "planner", 2.0)))
        assert "1 regressed" in text
        assert "verdict: REGRESSED" in text
        assert any(
            line.startswith("!") and "planner" in line
            for line in text.splitlines()
        )

    def test_self_diff_render_mentions_zero_regressions(self):
        text = render_compare(_diff(_capture(), _capture()))
        assert "0 regressed" in text
        assert "verdict: IDENTICAL" in text
