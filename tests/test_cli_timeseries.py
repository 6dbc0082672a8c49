"""CLI surface of the time-series pipeline: --timeseries, dash, diff."""

import json

import pytest

from repro.cli import build_parser, main
from repro.timeseries import load_capture


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    """One sampled training run shared by the read-only CLI tests."""
    path = tmp_path_factory.mktemp("ts") / "ts.json"
    assert main(["train", "lr-higgs", "--timeseries", str(path)]) == 0
    return path


class TestParser:
    def test_train_timeseries_flag(self):
        args = build_parser().parse_args(
            ["train", "lr-higgs", "--timeseries", "ts.json"]
        )
        assert args.timeseries == "ts.json"

    def test_dash_defaults(self):
        args = build_parser().parse_args(["dash", "--replay", "ts.json"])
        assert args.replay == "ts.json"
        assert args.width == 60

    def test_timeseries_actions(self):
        args = build_parser().parse_args(["timeseries", "diff", "a", "b"])
        assert args.action == "diff"
        assert args.paths == ["a", "b"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timeseries", "frobnicate", "a"])


class TestSampledRun:
    def test_capture_written_and_valid(self, capture_path, capsys):
        payload = load_capture(capture_path.read_text())
        names = [entry["name"] for entry in payload["series"]]
        assert "platform.inflight" in names
        assert "train.cost_usd" in names
        assert payload["meta"]["command"] == "train"
        assert main(["timeseries", "validate", str(capture_path)]) == 0
        assert "valid repro-timeseries/v1" in capsys.readouterr().out

    def test_peaks_are_the_sampled_high_water_marks(self, tmp_path, capsys):
        """The breakdown's peaks come from the platform gauges, and on a
        sampled run they equal the high-water marks of its series."""
        ts = tmp_path / "ts.json"
        tel = tmp_path / "tel.json"
        assert main(
            [
                "train", "lr-higgs",
                "--timeseries", str(ts), "--telemetry", str(tel),
            ]
        ) == 0
        capsys.readouterr()
        assert "peaks" not in json.loads(tel.read_text())["run"]
        assert main(["diagnose", str(tel), "--format", "json"]) == 0
        peaks = json.loads(capsys.readouterr().out)["breakdown"]["peaks"]
        series = {e["name"]: e for e in load_capture(ts.read_text())["series"]}
        assert peaks == {
            "concurrency": series["platform.inflight"]["high_water"],
            "warm_pool": series["platform.warm_pool"]["high_water"],
        }
        assert peaks["warm_pool"] > 0

    def test_summary_has_no_peaks_without_flag(self, tmp_path, capsys):
        tel = tmp_path / "tel.json"
        assert main(["train", "lr-higgs", "--telemetry", str(tel)]) == 0
        capsys.readouterr()
        assert "peaks" not in json.loads(tel.read_text())["run"]

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["timeseries", "validate", str(bad)]) == 2
        assert main(["timeseries", "validate", str(tmp_path / "nope")]) == 2


class TestDash:
    def test_replay_is_byte_stable(self, capture_path, capsys):
        assert main(["dash", "--replay", str(capture_path)]) == 0
        first = capsys.readouterr().out
        assert main(["dash", "--replay", str(capture_path)]) == 0
        assert capsys.readouterr().out == first
        assert "platform.inflight" in first
        assert "repro dash" in first

    def test_replay_missing_file(self, tmp_path, capsys):
        assert main(["dash", "--replay", str(tmp_path / "nope.json")]) == 2
        assert "repro dash" in capsys.readouterr().err

    def test_train_capture_replays_in_dash(self, tmp_path, capsys):
        out = tmp_path / "live.json"
        assert main(["train", "lr-higgs", "--timeseries", str(out)]) == 0
        capsys.readouterr()
        assert main(["dash", "--replay", str(out)]) == 0
        assert "train.cost_usd" in capsys.readouterr().out
        assert load_capture(out.read_text())["meta"]["command"] == "train"

    def test_replay_required(self, capsys):
        assert main(["dash"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro dash: --replay CAPTURE is required")
        assert err.count("\n") == 1


class TestDiff:
    def test_self_diff_is_clean(self, capture_path, capsys):
        assert main(
            ["timeseries", "diff", str(capture_path), str(capture_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "verdict: IDENTICAL" in out

    def test_seed_change_drifts(self, capture_path, tmp_path, capsys):
        other = tmp_path / "seed1.json"
        assert main(
            ["train", "lr-higgs", "--seed", "7", "--timeseries", str(other)]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["timeseries", "diff", str(capture_path), str(other),
             "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        drifted = [
            row["key"] for row in report["rows"]
            if row["status"] in ("changed", "added", "removed")
        ]
        # A different seed moves at least the cost/sync trajectories, and
        # the exit code says so.
        assert "train.cost_usd" in drifted
        assert rc == 1
        assert len(report["rows"]) >= 8

    @pytest.mark.parametrize("where", ["before", "after-action", "between", "after"])
    def test_options_anywhere(self, capture_path, where, capsys):
        a = b = str(capture_path)
        opts = ["--format", "json", "--threshold", "0.1"]
        argv = {
            "before": ["timeseries", *opts, "diff", a, b],
            "after-action": ["timeseries", "diff", *opts, a, b],
            "between": ["timeseries", "diff", a, *opts, b],
            "after": ["timeseries", "diff", a, b, *opts],
        }[where]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "identical"
        assert report["params"]["threshold"] == 0.1

    def test_diff_out_file(self, capture_path, tmp_path, capsys):
        out = tmp_path / "diff.json"
        assert main(
            ["timeseries", "diff", str(capture_path), str(capture_path),
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert (report["schema"], report["kind"]) == ("repro-compare/v2", "timeseries")

    def test_diff_needs_two_paths(self, capture_path, capsys):
        assert main(["timeseries", "diff", str(capture_path)]) == 2
        assert "BASE and TARGET" in capsys.readouterr().err


class TestDiagnose:
    def test_capture_mode_feeds_anomaly_detector(
        self, capture_path, tmp_path, capsys
    ):
        tel = tmp_path / "tel.json"
        assert main(["train", "lr-higgs", "--telemetry", str(tel)]) == 0
        capsys.readouterr()
        assert main(
            ["diagnose", str(tel), "--timeseries", str(capture_path),
             "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert "findings" in report

    def test_capture_mode_rejects_bad_timeseries(self, tmp_path, capsys):
        tel = tmp_path / "tel.json"
        assert main(["train", "lr-higgs", "--telemetry", str(tel)]) == 0
        capsys.readouterr()
        assert main(
            ["diagnose", str(tel), "--timeseries", str(tmp_path / "nope")]
        ) == 2
