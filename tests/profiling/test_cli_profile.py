"""The `repro profile` command family and the --profile/--flamegraph flags."""

import json

import pytest

from repro.cli import main
from repro.profiling import load_capture


def _run_capture(tmp_path, name="cap.json", extra=()):
    out = tmp_path / name
    rc = main(["train", "lr-higgs", "--seed", "0", "--profile", str(out), *extra])
    assert rc == 0
    return out


class TestLegacyProfile:
    def test_pareto_table_still_prints(self, capsys):
        assert main(["profile", "lr-higgs"]) == 0
        out = capsys.readouterr().out
        assert "Pareto boundary" in out

    def test_workload_required_without_diff_or_validate(self, capsys):
        assert main(["profile"]) == 2
        assert "workload name is required" in capsys.readouterr().err


class TestProfileRun:
    """A run is profiled by the command that runs it: ``train`` or
    ``tune`` with ``--profile`` (and ``--flamegraph``)."""

    def test_train_capture_written_and_valid(self, tmp_path, capsys):
        out = _run_capture(tmp_path)
        payload = load_capture(out.read_text())
        paths = {f["path"] for f in payload["frames"]}
        assert "train/run" in paths
        assert "profiler/evaluate_space" in paths
        assert payload["meta"]["workload"] == "lr-higgs"
        capsys.readouterr()
        assert main(["profile", "--validate", str(out)]) == 0
        assert "train/run" in capsys.readouterr().out

    def test_tune_capture_contains_planner_frames(self, tmp_path):
        out = tmp_path / "tune.json"
        rc = main(
            [
                "tune", "lr-higgs", "--seed", "0", "--trials", "8",
                "--epochs-per-stage", "1", "--profile", str(out),
            ]
        )
        assert rc == 0
        paths = {f["path"] for f in load_capture(out.read_text())["frames"]}
        assert "tune/run" in paths
        assert any(p.endswith("planner/plan") for p in paths)

    def test_flamegraph_written(self, tmp_path):
        flame = tmp_path / "flame.txt"
        _run_capture(tmp_path, extra=("--flamegraph", str(flame)))
        lines = flame.read_text().splitlines()
        assert lines
        # "path <int microseconds>" per line
        for line in lines:
            path, weight = line.rsplit(" ", 1)
            assert path
            int(weight)


class TestProfileDiff:
    def test_self_diff_is_clean_exit_zero(self, tmp_path, capsys):
        cap = _run_capture(tmp_path)
        capsys.readouterr()
        assert main(["profile", "--diff", str(cap), str(cap)]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        cap = _run_capture(tmp_path)
        doctored = json.loads(cap.read_text())
        for frame in doctored["frames"]:
            if frame["path"] == "train/run":
                frame["total_s"] *= 10
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doctored))
        capsys.readouterr()
        rc = main(["profile", "--diff", str(cap), str(slow)])
        assert rc == 1
        assert "regressed" in capsys.readouterr().out

    def test_diff_json_format_and_out_file(self, tmp_path, capsys):
        cap = _run_capture(tmp_path)
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        rc = main(
            [
                "profile", "--diff", str(cap), str(cap),
                "--format", "json", "--out", str(report_path),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed == report_path.read_text()
        report = json.loads(printed)
        assert (report["schema"], report["kind"]) == ("repro-compare/v2", "profile")
        assert report["verdict"] == "identical"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["profile", "--diff", missing, missing]) == 2


class TestProfileValidate:
    def test_good_capture_validates(self, tmp_path, capsys):
        cap = _run_capture(tmp_path)
        capsys.readouterr()
        assert main(["profile", "--validate", str(cap), "--top", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("valid repro-profile/v1")
        # The frame table follows: its summary, header and the 3 widest frames.
        assert lines[1].startswith("profile: ") and len(lines) == 1 + 2 + 3

    def test_corrupt_capture_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["profile", "--validate", str(bad)]) == 2

    def test_key_drift_exits_two(self, tmp_path, capsys):
        cap = _run_capture(tmp_path)
        payload = json.loads(cap.read_text())
        payload["extra"] = 1
        cap.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["profile", "--validate", str(cap)]) == 2
        assert "repro-profile/v1" in capsys.readouterr().err


class TestInlineProfileFlags:
    """--profile/--flamegraph ride along on train/tune/workflow."""

    def test_train_writes_capture_and_flamegraph(self, tmp_path, capsys):
        cap = tmp_path / "train.json"
        flame = tmp_path / "train.flame"
        rc = main(
            [
                "train", "lr-higgs", "--budget-multiple", "2.5",
                "--profile", str(cap), "--flamegraph", str(flame),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile :" in out
        payload = load_capture(cap.read_text())
        assert any(f["path"] == "train/run" for f in payload["frames"])
        assert flame.read_text().splitlines()

    def test_trace_gets_profiler_process(self, tmp_path):
        cap = tmp_path / "train.json"
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "train", "lr-higgs", "--budget-multiple", "2.5",
                "--trace", str(trace), "--profile", str(cap),
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        pids = {e.get("pid") for e in doc["traceEvents"]}
        assert {1, 2} <= pids

    def test_profiler_uninstalled_without_flag(self, capsys):
        from repro.profiling import get_profiler

        rc = main(["train", "lr-higgs", "--budget-multiple", "2.5"])
        assert rc == 0
        assert not get_profiler().enabled
