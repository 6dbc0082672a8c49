"""CLI surface: `repro slo` exit codes, JSON output, the guarded run it
replays, and the error paths of `repro diagnose` on missing or truncated
captures."""

import json

import pytest

from repro.cli import main
from repro.slo import SLOSpec
from repro.slo.events import EventLog
from repro.telemetry.exporters import to_json


@pytest.fixture
def events_file(tmp_path):
    """A synthetic but schema-valid events log: 10 s run, 0.10 USD spent."""
    log = EventLog(meta={"command": "train", "workload": "synthetic"})
    log.append("plan_chosen", 0.0, scope="train", predicted_total_epochs=5)
    for i in range(1, 6):
        log.append(
            "epoch_done", 2.0 * i, scope="train",
            epoch=i, wall_s=2.0, cost_usd=0.02,
        )
    path = tmp_path / "events.jsonl"
    path.write_text(log.to_jsonl())
    return path


def _spec_file(tmp_path, name, **kwargs):
    path = tmp_path / f"{name}.json"
    SLOSpec(name=name, **kwargs).save(path)
    return path


class TestSloExitCodes:
    def test_met_exits_zero(self, tmp_path, events_file, capsys):
        spec = _spec_file(tmp_path, "generous", deadline_s=100.0, budget_usd=1.0)
        code = main(["slo", "--spec", str(spec), "--capture", str(events_file)])
        assert code == 0
        assert "verdict: met" in capsys.readouterr().out

    def test_violated_exits_one(self, tmp_path, events_file, capsys):
        spec = _spec_file(tmp_path, "tight", deadline_s=5.0, budget_usd=0.05)
        code = main(["slo", "--spec", str(spec), "--capture", str(events_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: VIOLATED (deadline, budget)" in out

    def test_missing_spec_exits_two(self, tmp_path, events_file, capsys):
        code = main([
            "slo", "--spec", str(tmp_path / "nope.json"),
            "--capture", str(events_file),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro slo:") and err.count("\n") == 1

    def test_truncated_events_exits_two(self, tmp_path, events_file, capsys):
        spec = _spec_file(tmp_path, "s", deadline_s=100.0)
        text = events_file.read_text()
        events_file.write_text(text[: len(text) - 15])
        code = main(["slo", "--spec", str(spec), "--capture", str(events_file)])
        assert code == 2
        assert "truncated or malformed" in capsys.readouterr().err

    def test_neither_capture_nor_workload_exits_two(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, "s", deadline_s=100.0)
        assert main(["slo", "--spec", str(spec)]) == 2
        assert "provide --capture" in capsys.readouterr().err

    def test_empty_capture_dir_exits_two(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, "s", deadline_s=100.0)
        empty = tmp_path / "rundir"
        empty.mkdir()
        assert main(["slo", "--spec", str(spec), "--capture", str(empty)]) == 2
        assert "neither events.jsonl nor telemetry.json" in capsys.readouterr().err


class TestSloOutputs:
    def test_capture_dir_picks_events_log(self, tmp_path, events_file, capsys):
        spec = _spec_file(tmp_path, "s", deadline_s=100.0, budget_usd=1.0)
        code = main(["slo", "--spec", str(spec), "--capture", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "burn" in out  # replay mode: projections/burn rates present

    def test_json_format_is_deterministic_and_round_trips(
        self, tmp_path, events_file, capsys
    ):
        spec = _spec_file(tmp_path, "s", deadline_s=100.0, budget_usd=1.0)
        argv = [
            "slo", "--spec", str(spec), "--capture", str(events_file),
            "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["schema"] == "repro-slo-report/v1"
        assert payload["verdict"] == {"violated": False, "violations": []}
        assert [o["dimension"] for o in payload["objectives"]] == [
            "deadline", "budget",
        ]

    def test_out_flag_writes_the_report(self, tmp_path, events_file):
        spec = _spec_file(tmp_path, "s", deadline_s=100.0)
        out = tmp_path / "report.json"
        main([
            "slo", "--spec", str(spec), "--capture", str(events_file),
            "--out", str(out),
        ])
        assert json.loads(out.read_text())["schema"] == "repro-slo-report/v1"

    def test_telemetry_capture_summary_mode(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.json"
        telemetry.write_text(
            to_json((), run={"jct_s": 10.0, "cost_usd": 0.1}, meta={"seed": 0})
        )
        spec = _spec_file(tmp_path, "s", deadline_s=5.0, budget_usd=1.0)
        code = main(["slo", "--spec", str(spec), "--capture", str(telemetry)])
        assert code == 1
        assert "VIOLATED (deadline)" in capsys.readouterr().out

    def test_telemetry_capture_without_run_summary_exits_two(
        self, tmp_path, capsys
    ):
        telemetry = tmp_path / "telemetry.json"
        telemetry.write_text(to_json(()))
        spec = _spec_file(tmp_path, "s", deadline_s=5.0)
        assert main(["slo", "--spec", str(spec), "--capture", str(telemetry)]) == 2
        assert "no run summary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objectives",
        [{"stage_budgets_usd": {0: 0.05}}, {"budget_usd": 1.0}],
        ids=["stage-budget-only", "budget-without-cost"],
    )
    def test_summary_that_judges_nothing_exits_two(self, tmp_path, objectives, capsys):
        """A summary has no stage splits, and this one no cost: judging no
        objective is an input error, not a met SLO."""
        telemetry = tmp_path / "telemetry.json"
        telemetry.write_text(to_json((), run={"jct_s": 10.0}, meta={"seed": 0}))
        spec = _spec_file(tmp_path, "s", **objectives)
        assert main(["slo", "--spec", str(spec), "--capture", str(telemetry)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro slo:") and captured.err.count("\n") == 1
        assert "event log" in captured.err


class TestGuardedRun:
    """`repro train --slo` guards a run live; `repro slo --capture` on its
    event log reaches the same verdict and exit code."""

    @pytest.mark.parametrize("deadline_s", [1e6, 5.0], ids=["met", "violated"])
    def test_train_guard_and_capture_replay_agree(self, tmp_path, deadline_s, capsys):
        spec = _spec_file(tmp_path, "guard", deadline_s=deadline_s, budget_usd=10.0)
        events = tmp_path / "events.jsonl"
        live = main(["train", "lr-higgs", "--budget", "2.0", "--slo", str(spec),
                     "--events", str(events)])
        assert live == (0 if deadline_s > 5.0 else 1)
        capsys.readouterr()
        replay = main(["slo", "--spec", str(spec), "--capture", str(events),
                       "--format", "json"])
        assert replay == live
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["violated"] is bool(live)

    def test_stage_budget_judged_from_the_log_not_the_summary(self, tmp_path, capsys):
        """Stage 0 of this SHA run spends about 0.64 USD: its event log
        violates a 0.05 USD sub-budget; its telemetry cannot judge it."""
        spec = _spec_file(tmp_path, "stage", stage_budgets_usd={0: 0.05})
        events, telemetry = tmp_path / "events.jsonl", tmp_path / "telemetry.json"
        assert main(["tune", "lr-higgs", "--trials", "16", "--seed", "0",
                     "--telemetry", str(telemetry), "--events", str(events)]) == 0
        capsys.readouterr()
        assert main(["slo", "--spec", str(spec), "--capture", str(events)]) == 1
        assert "verdict: VIOLATED (stage:0)" in capsys.readouterr().out
        assert main(["slo", "--spec", str(spec), "--capture", str(telemetry)]) == 2
        assert "--events" in capsys.readouterr().err


class TestReportErrorPaths:
    """The JSON diagnosis report of a capture that cannot be read: one
    stderr line, nothing on stdout, no report file."""

    def _assert_no_report(self, capture, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["diagnose", str(capture), "--format", "json", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro diagnose:") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_missing_capture_exits_two(self, tmp_path, capsys):
        self._assert_no_report(tmp_path / "missing.json", tmp_path, capsys)

    def test_truncated_capture_exits_two(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text('{"schema": "repro-telemetry/v1", "metr')
        self._assert_no_report(path, tmp_path, capsys)


class TestDiagnoseErrorPaths:
    def test_missing_capture_path_exits_two(self, tmp_path, capsys):
        code = main(["diagnose", str(tmp_path / "missing.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro diagnose:") and "does not exist" in err
        assert err.count("\n") == 1

    def test_truncated_capture_exits_two(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text('{"schema": "repro-telemetry/v1", "metr')
        code = main(["diagnose", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro diagnose:") and err.count("\n") == 1

    def test_wrong_schema_exits_two(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text('{"schema": "other/v1"}')
        assert main(["diagnose", str(path)]) == 2
        assert "unsupported telemetry schema" in capsys.readouterr().err

    def test_missing_slo_spec_exits_two(self, tmp_path, capsys):
        code = main([
            "diagnose", "lr-higgs", "--slo", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro diagnose:")
