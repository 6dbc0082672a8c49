"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import contextlib
import io
import shutil

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cli import build_parser, main
from repro.common.errors import ValidationError
from repro.common.types import Allocation
from repro.faults import FaultLedger, FaultPlan
from repro.faults.ledger import RECORD_KINDS, SUMMARY_NUMBERS
from repro.runs import ProvenanceStamp, RunBundle, RunStore, load_manifest
from repro.slo.events import EVENT_KINDS, EventLog
from repro.telemetry import MetricsRegistry
from repro.telemetry.exporters import to_json


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "lr-higgs"])
        assert args.method == "ce-scaling"
        assert args.budget_multiple == 2.5

    def test_multiple_below_one_is_valid(self):
        """An infeasible constraint is valid input; the run reports it."""
        args = build_parser().parse_args(["train", "lr-higgs", "--budget-multiple", "0.5"])
        assert args.budget_multiple == 0.5

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "lr-higgs", "--method", "magic"])


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "lr-higgs" in out and "bert-imdb" in out

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "table2" in out

    def test_profile(self, capsys):
        assert main(["profile", "mobilenet-cifar10"]) == 0
        out = capsys.readouterr().out
        assert "Pareto boundary" in out
        assert "vmps" in out

    def test_profile_pinned(self, capsys):
        assert main(["profile", "lr-higgs", "--storage", "elasticache"]) == 0
        out = capsys.readouterr().out
        assert "elasticache" in out
        assert "vmps" not in out

    def test_train_smoke(self, capsys):
        assert main(["train", "mobilenet-cifar10", "--budget-multiple", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "JCT" in out and "converged=True" in out

    def test_train_qos_mode(self, capsys):
        assert main(
            ["train", "mobilenet-cifar10", "--qos-multiple", "3.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "min cost" in out

    def test_tune_smoke(self, capsys):
        assert main(["tune", "lr-higgs", "--trials", "16"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out

    def test_workflow_smoke(self, capsys):
        assert main(
            ["workflow", "mobilenet-cifar10", "--trials", "16", "--budget", "25"]
        ) == 0
        out = capsys.readouterr().out
        assert "tuning" in out and "training" in out and "total" in out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_workload_raises(self, capsys):
        assert main(["profile", "alexnet-imagenet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro profile: unknown workload")
        assert len(err.splitlines()) == 1


class TestTelemetryFlags:
    def test_train_capture_then_report(self, tmp_path, capsys):
        """Acceptance path: train --telemetry/--trace/--events, then the
        breakdown from repro diagnose."""
        import json

        metrics = tmp_path / "out.json"
        trace = tmp_path / "out.trace.json"
        events = tmp_path / "out.events.jsonl"
        assert main(
            [
                "train", "lr-higgs", "--budget-multiple", "2.5",
                "--telemetry", str(metrics), "--trace", str(trace),
                "--events", str(events),
            ]
        ) == 0
        capsys.readouterr()

        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro-telemetry/v1"
        assert doc["meta"]["workload"] == "lr-higgs"
        assert doc["run"]["jct_s"] > 0
        names = {m["name"] for m in doc["metrics"]}
        assert "repro_faas_invocations_total" in names

        chrome = json.loads(trace.read_text())
        spans = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
        assert spans and all("ts" in e and "dur" in e for e in spans)

        assert main(["diagnose", str(metrics), "--events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "breakdown (cost $" in out
        assert "cold starts" in out

    def test_telemetry_off_leaves_no_files(self, tmp_path, capsys):
        assert main(["train", "lr-higgs", "--budget-multiple", "2.5"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_tune_capture(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "tune.json"
        assert main(
            ["tune", "lr-higgs", "--trials", "16", "--telemetry", str(metrics)]
        ) == 0
        doc = json.loads(metrics.read_text())
        assert doc["meta"]["command"] == "tune"
        assert doc["run"]["jct_s"] > 0


def _events_with(row, meta: dict | None = None) -> str:
    """A repro-events/v1 log whose one event line is ``row``."""
    header = {"schema": "repro-events/v1", "meta": meta or {}}
    return json.dumps(header) + "\n" + json.dumps(row)


#: One well-formed epoch_done payload: the EpochRecord fields the timeline
#: reads, plus the keys only the SLO guard reads.
_EPOCH_ROW = {"epoch": 1, "allocation": "4fn/1024MB/s3", "loss": 0.5,
              "load_s": 0.2, "compute_s": 1.5, "sync_s": 0.3, "cold_start_s": 0.25,
              "invocation_usd": 1e-06, "compute_usd": 0.01,
              "storage_usd": 0.002, "worker_durations_s": [1.9, 1.95, 2.0, 1.7],
              "wall_s": 2.25, "cost_usd": 0.012001, "straggler_slowdown": 1.05}


def _epoch_log_with(meta: dict | None = None, **fields) -> str:
    """A repro-events/v1 log whose one epoch_done row is :data:`_EPOCH_ROW`
    with ``fields`` replaced (a ``None`` value drops the field)."""
    data = {k: v for k, v in {**_EPOCH_ROW, **fields}.items() if v is not None}
    return _events_with({"seq": 0, "t_s": 2.25, "kind": "epoch_done", "scope": "train",
                         "data": data}, meta)


def _journal(header) -> str:
    """An uncommitted repro-journal/v1 holding only a header with ``header``'s fields."""
    return json.dumps({"schema": "repro-journal/v1", "kind": "header", "meta": {}, **header}) + "\n"


#: Malformed input files, written side by side for each CLI case below
#: (a string is written as is, anything else as JSON).
MALFORMED_FILES = {
    "array.json": [],
    "plan.json": {
        "schema": "repro-faults/v1",
        "name": "no-duration",
        "storage": {"*": {"throttle_windows": [{"start_s": 1.0}]}},
    },
    "report.json": {
        "schema": "repro-faults-report/v1",
        "records": [{"kind": "crash"}],
    },
    "spec.json": {"schema": "repro-slo/v1", "deadline_s": "x"},
    "telemetry.json": {"schema": "repro-telemetry/v1"},
    # A valid capture, and event logs whose timeline diagnose cannot read:
    # no epoch_done row, a non-integral epoch, a NaN component, a
    # worker list that is not a list, a missing field.
    "telemetry-ok.json": {"schema": "repro-telemetry/v1", "meta": {}, "metrics": [],
                          "run": {"jct_s": 2.0, "cost_usd": 0.1}},
    "events-no-epochs.jsonl": _events_with({"seq": 0, "t_s": 1.0, "kind": "stage_done",
                                            "scope": "tune", "data": {"stage": 0}}),
    "events-epoch.jsonl": _epoch_log_with(epoch=2.7),
    "events-nan.jsonl": _epoch_log_with(compute_s=float("nan")),
    "events-workers.jsonl": _epoch_log_with(worker_durations_s=1.9),
    "events-missing.jsonl": _epoch_log_with(sync_s=None),
    "slo-ok.json": {"schema": "repro-slo/v1", "name": "ok", "deadline_s": 300.0},
    "events-nokind.jsonl": _events_with({"seq": 0, "t_s": 1.0, "data": {}}),
    "events-row.jsonl": _events_with([1, 2]),
    "events-data.jsonl": _events_with({"seq": 0, "t_s": 1.0, "kind": "epoch_done", "data": [1]}),
    "metrics.json": {"schema": "repro-telemetry/v1", "metrics": 5},
    "plan-storage.json": {"schema": "repro-faults/v1", "storage": [1]},
    "plan-backend.json": {"schema": "repro-faults/v1", "storage": {"s3": [1]}},
    "plan-retry.json": {"schema": "repro-faults/v1", "retry": [1]},
    "plan-loss.json": {"schema": "repro-faults/v1", "permanent_loss": {"a": 1}},
    "report-summary.json": {"schema": "repro-faults-report/v1", "summary": [1]},
    "report-count.json": {"schema": "repro-faults-report/v1", "summary": {"n_faults": "x"}},
    "report-list.json": [1],
    "report-bare.json": {"summary": [1]},
    "report-other.json": {"other": 1},
    # A valid capture, and SLO specs with a non-finite or string number.
    "events.jsonl": _events_with({"seq": 0, "t_s": 1.0, "kind": "epoch_done", "scope": "train",
                                  "data": {"epoch": 1, "wall_s": 1.0, "cost_usd": 0.5}}),
    "spec-budget-nan.json": {"schema": "repro-slo/v1", "budget_usd": float("nan")},
    "spec-deadline-inf.json": {"schema": "repro-slo/v1", "deadline_s": float("inf")},
    "spec-stage-nan.json": {"schema": "repro-slo/v1", "stage_budgets_usd": {"0": float("nan")}},
    "spec-stage-string.json": {"schema": "repro-slo/v1", "stage_budgets_usd": {"0": "0.5"}},
    "spec-warn-string.json": {"schema": "repro-slo/v1", "budget_usd": 1.0, "warn_ratio": "x"},
    "spec-drift-string.json": {"schema": "repro-slo/v1", "budget_usd": 1.0,
                               "predictor_drift_threshold": "x"},
    "spec-drift-nan.json": {"schema": "repro-slo/v1", "budget_usd": 1.0,
                            "predictor_drift_threshold": float("nan")},
    "spec-straggler-inf.json": {"schema": "repro-slo/v1", "budget_usd": 1.0,
                                "straggler_slowdown": float("inf")},
    # Journal headers: resume reads only the journaled argv.
    "journal-run-list.journal": _journal({"run": [1]}),
    "journal-run-string.journal": _journal({"run": "train"}),
    "journal-args-list.journal": _journal({"run": {"command": "train", "args": [1]}}),
    "journal-args-string.journal": _journal({"run": {"command": "train", "args": "x"}}),
    "journal-argv-int.journal": _journal({"run": {"command": "train", "args": {"_argv": 5}}}),
    "journal-argv-seed.journal": _journal(
        {"run": {"command": "train", "args": {"_argv": ["train", "lr-higgs", "--seed", "-3"]}}}
    ),
    "journal-argv-method.journal": _journal(
        {"run": {"command": "train", "args": {"_argv": ["train", "lr-higgs", "--method", "nope"]}}}
    ),
    "journal-argv-tune.journal": _journal(
        {"run": {"command": "train", "args": {"_argv": ["tune", "lr-higgs"]}}}
    ),
}


class TestMalformedInput:
    """Bad input files and bad arguments exit 2 with one stderr line, never
    a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "validate", "plan.json"],
            ["train", "lr-higgs", "--faults", "plan.json"],
            ["faults", "summarize", "report.json"],
            ["faults", "summarize", "array.json"],
            ["slo", "--spec", "spec.json"],
            ["train", "lr-higgs", "--slo", "spec.json"],
            ["diagnose", "array.json"],
            ["diagnose", "telemetry.json", "--events", "events.jsonl"],
            ["diagnose", "telemetry-ok.json", "--events", "events-no-epochs.jsonl"],
            ["diagnose", "telemetry-ok.json", "--events", "events-epoch.jsonl"],
            ["diagnose", "telemetry-ok.json", "--events", "events-nan.jsonl"],
            ["diagnose", "telemetry-ok.json", "--events", "events-workers.jsonl"],
            ["diagnose", "telemetry-ok.json", "--events", "events-missing.jsonl"],
            ["train", "lr-higgs", "--budget", "2.0", "--seed", "-1"],
            ["tune", "lr-higgs", "--seed", "x"],
            ["slo", "--spec", "slo-ok.json", "--capture", "events-nokind.jsonl"],
            ["slo", "--spec", "slo-ok.json", "--capture", "events-row.jsonl"],
            ["slo", "--spec", "slo-ok.json", "--capture", "events-data.jsonl"],
            ["diagnose", "metrics.json"],
            # The JSON diagnosis report of a malformed capture: nothing is
            # written to --out.
            pytest.param(["diagnose", "array.json", "--format", "json", "--out", "out.json"],
                         id="report-array.json"),
            pytest.param(["diagnose", "metrics.json", "--format", "json", "--out", "out.json"],
                         id="report-metrics.json"),
            # Fault plans: every nested shape is checked.
            ["faults", "validate", "plan-storage.json"],
            ["faults", "validate", "plan-backend.json"],
            ["faults", "validate", "plan-retry.json"],
            ["faults", "validate", "plan-loss.json"],
            ["train", "lr-higgs", "--faults", "plan-retry.json"],
            # Fault reports: one loader for summarize and diagnose.
            ["faults", "summarize", "report-summary.json"],
            ["diagnose", "telemetry.json", "--fault-report", "report-list.json"],
            ["diagnose", "telemetry.json", "--fault-report", "report-bare.json"],
            ["diagnose", "telemetry.json", "--fault-report", "report-count.json"],
            ["diagnose", "telemetry.json", "--fault-report", "report-other.json"],
            # SLO specs: NaN/Infinity, numeric strings, strings for numbers.
            ["slo", "--spec", "spec-budget-nan.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-deadline-inf.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-stage-nan.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-stage-string.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-warn-string.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-drift-string.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-drift-nan.json", "--capture", "events.jsonl"],
            ["slo", "--spec", "spec-straggler-inf.json", "--capture", "events.jsonl"],
            ["train", "lr-higgs", "--slo", "spec-budget-nan.json"],
            # Journal headers that do not hold a train command's argv.
            ["resume", "journal-run-list.journal"],
            ["resume", "journal-run-string.journal"],
            ["resume", "journal-args-list.journal"],
            ["resume", "journal-args-string.journal"],
            ["resume", "journal-argv-int.journal"],
            ["resume", "journal-argv-seed.journal"],
            ["resume", "journal-argv-method.journal"],
            ["resume", "journal-argv-tune.journal"],
            # A run store root that is a file, or lies under one: refused
            # before the run starts, and by every `repro runs` action.
            ["train", "lr-higgs", "--budget", "2.0", "--save-run", "array.json"],
            ["tune", "lr-higgs", "--trials", "16", "--save-run", "array.json/store"],
            ["workflow", "lr-higgs", "--trials", "16", "--save-run", "array.json"],
            ["runs", "list", "--store", "array.json"],
            ["runs", "gc", "--store", "array.json/store"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
    )
    def test_one_line_exit_two(self, argv, tmp_path):
        for name, payload in MALFORMED_FILES.items():
            text = payload if isinstance(payload, str) else json.dumps(payload)
            (tmp_path / name).write_text(text)
        proc = _assert_one_line_exit_two(argv, tmp_path)
        assert proc.stdout == ""
        assert not (tmp_path / "out.json").exists()

    def test_event_log_of_another_run(self, tmp_path):
        """A telemetry capture paired with the event log of another run
        (here: another seed) is refused, naming the first meta key that
        differs, instead of diagnosing a mixed timeline."""
        for seed in ("0", "1"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train", "lr-higgs", "--budget-multiple", "2.0",
                             "--seed", seed, "--telemetry", str(tmp_path / f"t{seed}.json"),
                             "--events", str(tmp_path / f"e{seed}.jsonl")]) == 0
        proc = _assert_one_line_exit_two(
            ["diagnose", "t0.json", "--events", "e1.jsonl"], tmp_path
        )
        assert "'seed'" in proc.stderr and proc.stdout == ""

    def test_event_log_of_the_faulted_run(self, tmp_path):
        """A clean run's telemetry and a faulted run's event log share their
        meta and their epoch count (38), but not their bill: the log's epoch
        costs sum to the other run's cost, so the pair is refused."""
        plan = str(Path(__file__).resolve().parents[1] / "examples" / "fault_plan.json")
        for name, faults in (("clean", []), ("faulted", ["--faults", plan])):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train", "lr-higgs", "--budget", "2.0", "--seed", "0", *faults,
                             "--telemetry", str(tmp_path / f"{name}.tel.json"),
                             "--events", str(tmp_path / f"{name}.ev.jsonl")]) == 0
        proc = _assert_one_line_exit_two(
            ["diagnose", "clean.tel.json", "--events", "faulted.ev.jsonl"], tmp_path
        )
        assert "1.7115069656815474" in proc.stderr and "1.9982882824845445" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            # Constraint values: finite and > 0, on every command that takes one.
            ["train", "lr-higgs", "--budget", "-1"],
            ["train", "lr-higgs", "--budget", "nan"],
            ["train", "lr-higgs", "--qos-multiple", "-2"],
            ["train", "lr-higgs", "--budget-multiple", "0"],
            ["tune", "lr-higgs", "--trials", "8", "--budget", "-3"],
            ["tune", "lr-higgs", "--budget", "nan"],
            ["workflow", "lr-higgs", "--budget", "nan"],
            ["train", "lr-higgs", "--budget", "inf"],
            ["diagnose", "lr-higgs", "--qos-multiple", "-1"],
            # Unknown models and SHA shapes.
            ["train", "nosuch"],
            ["tune", "nosuch"],
            ["tune", "lr-higgs", "--trials", "0"],
            ["tune", "lr-higgs", "--eta", "1"],
            ["tune", "lr-higgs", "--epochs-per-stage", "0"],
            ["workflow", "nosuch"],
            ["workflow", "lr-higgs", "--trials", "0"],
            ["diagnose", "nosuch"],
            ["profile", "nosuch"],
            ["experiment", "nosuch"],
            # Flag values with a shape: a fraction in (0, 1), RANK:FACTOR.
            ["workflow", "lr-higgs", "--budget", "2", "--tuning-fraction", "2"],
            ["workflow", "lr-higgs", "--tuning-fraction", "-1"],
            ["workflow", "lr-higgs", "--tuning-fraction", "nan"],
            ["diagnose", "lr-higgs", "--straggler", "x"],
        ],
        ids=" ".join,
    )
    def test_bad_argument_exit_two(self, argv, tmp_path):
        _assert_one_line_exit_two(argv, tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "bert-imdb", "--storage", "dynamodb"],
            ["train", "resnet50-cifar10", "--storage", "dynamodb", "--seed", "0",
             "--journal", "j.jsonl", "--telemetry", "t.json", "--events", "e.jsonl",
             "--save-run", "store"],
            ["train", "mobilenet-cifar10", "--storage", "dynamodb", "--journal", "j.jsonl"],
            ["diagnose", "bert-imdb", "--storage", "dynamodb", "--timeseries", "ts.json",
             "--out", "d.json"],
        ],
        ids=" ".join,
    )
    def test_storage_pin_without_feasible_point_exits_two(self, argv, tmp_path):
        """Table II's "N/A" cells (a model over DynamoDB's object limit,
        storage pinned): one line, exit 2, and no capture, bundle or
        journal file exists afterwards."""
        proc = _assert_one_line_exit_two(argv, tmp_path)
        assert "no feasible allocation" in proc.stderr and proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "lr-higgs", "--budget", "2.0", "--telemetry", "missing/t.json"],
            ["train", "lr-higgs", "--budget", "2.0", "--trace", "missing/t.json"],
            ["train", "lr-higgs", "--budget", "2.0", "--events", "missing/e.jsonl"],
            ["train", "lr-higgs", "--budget", "2.0", "--timeseries", "missing/ts.json"],
            ["train", "lr-higgs", "--budget", "2.0", "--profile", "missing/p.json"],
            ["diagnose", "lr-higgs", "--timeseries", "missing/ts.json"],
            ["slo", "--spec", "spec.json", "--capture", "e.jsonl", "--out", "missing/r.json"],
            ["diagnose", "lr-higgs", "--out", "missing/d.json"],
            ["profile", "--diff", "p.json", "p.json", "--out", "missing/c.json"],
            ["timeseries", "diff", "ts.json", "ts.json", "--out", "missing/c.json"],
            ["runs", "compare", "r", "r", "--store", "store", "--out", "missing/c.json"],
        ],
        ids=" ".join,
    )
    def test_output_in_missing_directory_exits_two_before_the_run(self, argv, tmp_path):
        """An output path whose directory does not exist is bad input: it
        is rejected before the job runs, not when the capture or report is
        written."""
        (tmp_path / "spec.json").write_text(
            (Path(__file__).resolve().parents[1] / "examples" / "slo_spec.json").read_text()
        )
        (tmp_path / "p.json").write_bytes(_valid_profile())
        (tmp_path / "ts.json").write_bytes(_valid_timeseries())
        RunStore(tmp_path / "store").save(
            RunBundle(ProvenanceStamp.collect("train"), {}, summary={"jct_s": 1.0})
        )
        proc = _assert_one_line_exit_two(argv, tmp_path)
        assert "missing" in proc.stderr and "does not exist" in proc.stderr
        assert proc.stdout == ""


    @pytest.mark.parametrize(
        "argv",
        [
            ["timeseries", "diff", "ts-values.json", "ts-values.json"],
            ["timeseries", "diff", "ts-series.json", "ts-series.json"],
            ["dash", "--replay", "ts-values.json"],
            ["dash", "--replay", "ts-series.json"],
            ["profile", "--diff", "p-total.json", "p-total.json"],
            ["profile", "--diff", "p-frames.json", "p-frames.json"],
            ["profile", "--validate", "p-calls.json"],
            ["diagnose", "tel.json", "--events", "events-5.jsonl"],
        ],
        ids=" ".join,
    )
    def test_wrongly_typed_capture_exits_two(self, argv, tmp_path):
        """A capture field of the wrong type is named in one line, not a
        traceback."""
        ts = json.loads(_valid_timeseries())
        ts["series"][0]["values"][0] = "a"
        (tmp_path / "ts-values.json").write_text(json.dumps(ts))
        ts["series"] = [5]
        (tmp_path / "ts-series.json").write_text(json.dumps(ts))
        profile = json.loads(_valid_profile())
        profile["frames"][0]["n_calls"] = 1.5  # the frame table prints counts as integers
        (tmp_path / "p-calls.json").write_text(json.dumps(profile))
        profile["frames"][0]["n_calls"] = 1
        profile["frames"][0]["total_s"] = "x"
        (tmp_path / "p-total.json").write_text(json.dumps(profile))
        profile["frames"] = [3]
        (tmp_path / "p-frames.json").write_text(json.dumps(profile))
        (tmp_path / "tel.json").write_bytes(_valid_telemetry())
        (tmp_path / "events-5.jsonl").write_text(
            _epoch_log_with(meta={"seed": 0}, worker_durations_s=[5, "a"])
        )
        _assert_one_line_exit_two(argv, tmp_path)


def _assert_one_line_exit_two(argv, cwd):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    return proc


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _valid_events() -> bytes:
    log = EventLog(meta={"seed": 0})
    log.append("plan_chosen", 0.0, scope="train", predicted_total_epochs=4)
    log.append("epoch_done", 2.0, scope="train", epoch=1, wall_s=2.0, cost_usd=0.05)
    log.append("stage_done", 3.0, scope="tune", stage=0, cost_usd=0.1)
    return log.to_jsonl().encode()


def _valid_telemetry() -> bytes:
    registry = MetricsRegistry()
    registry.counter("repro_faas_billed_usd_total", "spend", labelnames=("component",)) \
        .labels(component="compute").inc(0.5)
    registry.histogram("repro_faas_epoch_wall_seconds", "wall").observe(0.2)
    run = {"jct_s": 84.0, "cost_usd": 1.2, "objective": "min_jct", "budget_usd": 2.0,
           "qos_s": None, "peaks": {"concurrency": 4.0}}
    return to_json(registry.snapshot(), run=run, meta={"seed": 0}).encode()


def _valid_profile() -> bytes:
    from repro.profiling import Profiler, capture_payload, to_json as profile_json

    ticks = iter(range(100))
    profiler = Profiler(clock=lambda: next(ticks) * 0.01)
    with profiler.phase("train/run") as phase:
        phase.add("epochs", 3)
        with profiler.phase("train/execute_epoch"):
            pass
    return profile_json(capture_payload(profiler, meta={"seed": 0})).encode()


def _valid_timeseries() -> bytes:
    from repro.timeseries import TimeSeriesSampler, capture_payload, to_json as ts_json

    sampler = TimeSeriesSampler()
    for t in range(4):
        sampler.sample("platform.inflight", float(t), float(t % 2))
        sampler.sample("train.cost_usd", float(t), 0.1 * t)
    sampler.mark("epoch_done", 1.0, "epoch 1")
    return ts_json(capture_payload(sampler, meta={"seed": 0})).encode()


def _valid_trace() -> bytes:
    events = [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
         "args": {"name": "executor"}},
        {"ph": "X", "name": "epoch 1", "cat": "epoch", "pid": 1, "tid": 1,
         "ts": 0.0, "dur": 2e6,
         "args": {"epoch": 1, "allocation": "4fn/1024MB/s3", "loss": 0.5}},
        {"ph": "X", "name": "compute", "cat": "compute", "pid": 1, "tid": 2,
         "ts": 0.0, "dur": 1e6, "args": {}},
        {"ph": "X", "name": "worker 0", "cat": "worker", "pid": 1, "tid": 3,
         "ts": 0.0, "dur": 1.5e6, "args": {"rank": 0}},
    ]
    return json.dumps({"traceEvents": events}).encode()


_EVENT_FIELDS = ("epoch", "wall_s", "cost_usd", "stage", "predicted_total_epochs",
                 "straggler_slowdown")
_RUN_FIELDS = ("jct_s", "cost_usd", "objective", "budget_usd", "qos_s", "n_restarts",
               "scheduling_overhead_s", "converged", "peaks")

_event_rows = st.fixed_dictionaries(
    {"kind": st.sampled_from(EVENT_KINDS) | _json_values,
     "t_s": st.floats(0, 1e3) | _json_values},
    optional={"scope": st.sampled_from(["train", "tune"]) | _json_values,
              "data": st.dictionaries(st.sampled_from(_EVENT_FIELDS), _json_values)
              | _json_values},
) | _json_values

_metrics = st.fixed_dictionaries(
    {"name": st.sampled_from(["repro_faas_billed_usd_total", "m"]) | _json_values,
     "type": st.sampled_from(["counter", "gauge", "histogram"]) | _json_values},
    optional={"labelnames": _json_values, "bucket_bounds": _json_values,
              "samples": st.lists(st.fixed_dictionaries(
                  {}, optional={k: _json_values for k in ("labels", "value", "sum", "count",
                                                         "buckets")}), max_size=2)
              | _json_values},
) | _json_values


def _mangled(draw, valid: bytes, shaped) -> bytes:
    """``valid`` truncated or byte-mutated, or a wrongly shaped document."""
    kind = draw(st.sampled_from(["truncate", "mutate", "document", "shaped"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid)))]
    if kind == "mutate":
        data = bytearray(valid)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return bytes(data)
    if kind == "document":
        return json.dumps(draw(_json_values)).encode()
    return draw(shaped)


@st.composite
def _events_bytes(draw) -> bytes:
    header = json.dumps({"schema": "repro-events/v1", "meta": draw(_json_values)})
    rows = draw(st.lists(_event_rows, max_size=3))
    shaped = st.just("\n".join([header] + [json.dumps(r) for r in rows]).encode())
    return _mangled(draw, _valid_events(), shaped)


@st.composite
def _telemetry_bytes(draw) -> bytes:
    run = draw(st.dictionaries(st.sampled_from(_RUN_FIELDS), _json_values) | _json_values)
    metrics = draw(st.lists(_metrics, max_size=3) | _json_values)
    doc = {"schema": "repro-telemetry/v1", "meta": draw(_json_values), "run": run,
           "metrics": metrics}
    return _mangled(draw, _valid_telemetry(), st.just(json.dumps(doc).encode()))


@st.composite
def _profile_bytes(draw) -> bytes:
    frame = st.fixed_dictionaries(
        {"path": st.sampled_from(["train/run", "a;b"]) | _json_values},
        optional={k: st.floats(0, 1) | _json_values
                  for k in ("depth", "n_calls", "total_s", "self_s", "counters")},
    ) | _json_values
    doc = {"schema": "repro-profile/v1", "meta": draw(_json_values),
           "frames": draw(st.lists(frame, max_size=3) | _json_values),
           "totals": draw(st.dictionaries(
               st.sampled_from(["wall_s", "n_frames", "n_calls"]),
               st.floats(0, 1) | _json_values) | _json_values)}
    return _mangled(draw, _valid_profile(), st.just(json.dumps(doc).encode()))


@st.composite
def _timeseries_bytes(draw) -> bytes:
    numbers = st.lists(st.floats(0, 1) | _json_values, max_size=3) | _json_values
    entry = st.fixed_dictionaries(
        {"name": st.sampled_from(["platform.inflight", "x"]) | _json_values},
        optional={"t0_s": st.floats(0, 1) | _json_values, "dt_s": numbers,
                  "values": numbers, "n_samples": st.integers(0, 3) | _json_values,
                  "dropped": st.integers(0, 1) | _json_values,
                  "high_water": st.floats(0, 1) | _json_values},
    ) | _json_values
    marker = st.fixed_dictionaries(
        {"kind": st.sampled_from(["epoch_done"]) | _json_values},
        optional={k: _json_values for k in ("t_s", "label", "seq")},
    ) | _json_values
    doc = {"schema": "repro-timeseries/v1", "meta": draw(_json_values),
           "series": draw(st.lists(entry, max_size=2) | _json_values),
           "markers": draw(st.lists(marker, max_size=2) | _json_values),
           "totals": draw(st.dictionaries(
               st.sampled_from(["n_series", "n_points", "n_samples"]),
               st.integers(0, 3) | _json_values) | _json_values)}
    return _mangled(draw, _valid_timeseries(), st.just(json.dumps(doc).encode()))


def _valid_epoch_log() -> bytes:
    """A train event log whose timeline diagnose reads: two epochs, the
    first followed by its re-plan and restart."""
    log = EventLog(meta={"seed": 0})
    log.append("plan_chosen", 0.0, scope="train", allocation="4fn/1024MB/s3",
               search_overhead_s=0.4)
    log.append("epoch_done", 2.25, scope="train", **_EPOCH_ROW)
    log.append("plan_chosen", 2.45, scope="train", epoch=1, allocation="8fn/1024MB/s3",
               search_overhead_s=0.2)
    log.append("restart_begun", 2.5, scope="train", epoch=1, visible_s=0.05,
               hidden_s=1.1, target="8fn/1024MB/s3")
    log.append("epoch_done", 4.0, scope="train",
               **dict(_EPOCH_ROW, epoch=2, allocation="8fn/1024MB/s3"))
    return log.to_jsonl().encode()


#: Values a fuzzed epoch_done field may take, well-formed or not.
_EPOCH_VALUES = (st.sampled_from([1, 2.0, 2.7, -1, True, "1", [1.0, "x"], [1.0, 2.0],
                                  "4fn/1024MB/s3", "0fn/1024MB/s3", "4fn"])
                 | st.floats(allow_nan=True, allow_infinity=True) | _json_values)


@st.composite
def _epoch_log_bytes(draw) -> tuple[bytes, bool | None]:
    """An event log and whether its timeline is well formed (``None`` when
    the test does not judge it): the valid log with one field of one
    epoch_done row replaced or dropped, any event log, or a mangled one."""
    valid = _valid_epoch_log()
    kind = draw(st.sampled_from(["field", "field", "shaped"]))
    if kind == "shaped":
        return _mangled(draw, valid, _events_bytes()), None
    header, *rows = valid.decode().splitlines()
    docs = [json.loads(row) for row in rows]
    data = docs[draw(st.sampled_from([1, 4]))]["data"]
    key = draw(st.sampled_from(sorted(data)))
    if draw(st.booleans()):
        del data[key]
    else:
        data[key] = draw(_EPOCH_VALUES)
    text = "\n".join([header, *(json.dumps(d) for d in docs)]) + "\n"
    return text.encode(), all(_epoch_row_ok(d["data"]) for d in docs
                              if d["kind"] == "epoch_done")


def _epoch_row_ok(data: dict) -> bool:
    """Whether an epoch_done payload holds every field the timeline reads,
    each of the right shape (the test's own oracle for the reader)."""
    def finite(v):
        return type(v) in (int, float) and abs(v) <= sys.float_info.max

    numbers = ("loss", "load_s", "compute_s", "sync_s", "cold_start_s",
               "invocation_usd", "compute_usd", "storage_usd")
    workers = data.get("worker_durations_s")
    if not (all(finite(data.get(k)) for k in numbers + ("epoch",))
            and float(data["epoch"]).is_integer()
            and isinstance(workers, list) and all(finite(v) for v in workers)
            and isinstance(data.get("allocation"), str)):
        return False
    try:
        Allocation.parse(data["allocation"])
    except ValidationError:
        return False
    return True


def _valid_fault_report() -> bytes:
    ledger = FaultLedger(plan_name="chaos")
    ledger.record("crash", 1.5, scope="train", epoch=1, rank=2, lost_s=0.7)
    ledger.record("retry", 1.6, scope="train", epoch=1, rank=2, attempt=1, lost_s=0.1)
    plan = FaultPlan.default_profile().to_payload()
    return ledger.to_json(plan, meta={"seed": 0}).encode()


_numbers = st.floats(0, 10) | _json_values


@st.composite
def _fault_plan_bytes(draw) -> bytes:
    window = st.fixed_dictionaries(
        {}, optional={k: _numbers for k in ("start_s", "duration_s", "slowdown")}
    ) | _json_values
    backend = st.fixed_dictionaries(
        {},
        optional={"transient_prob": _numbers, "max_errors": _numbers,
                  "error_timeout_s": _numbers,
                  "throttle_windows": st.lists(window, max_size=2) | _json_values},
    ) | _json_values
    loss = st.fixed_dictionaries(
        {}, optional={"epoch": _numbers, "rank": _numbers}
    ) | _json_values
    fields = draw(st.fixed_dictionaries(
        {},
        optional={
            "name": st.just("p") | _json_values,
            **{k: _numbers for k in ("crash_prob", "crash_mid_fraction",
                                     "invocation_timeout_s", "cold_start_failure_prob")},
            "storage": st.dictionaries(st.sampled_from(["s3", "*", "x"]), backend,
                                       max_size=2) | _json_values,
            "permanent_loss": st.lists(loss, max_size=2) | _json_values,
            "retry": st.fixed_dictionaries({}, optional={
                k: _numbers for k in ("max_attempts", "base_backoff_s",
                                      "backoff_factor", "jitter")}) | _json_values,
        },
    ))
    doc = {"schema": "repro-faults/v1", **fields}
    valid = FaultPlan.default_profile().to_json().encode()
    return _mangled(draw, valid, st.just(json.dumps(doc).encode()))


@st.composite
def _fault_report_bytes(draw) -> bytes:
    record = st.fixed_dictionaries(
        {"kind": st.sampled_from(RECORD_KINDS) | _json_values},
        optional={**{k: _numbers for k in ("t_s", "epoch", "rank", "attempt", "lost_s")},
                  "scope": st.just("train") | _json_values,
                  "detail": st.just("d") | _json_values},
    ) | _json_values
    summary = st.dictionaries(
        st.sampled_from(SUMMARY_NUMBERS + ("plan", "by_kind")), _numbers
    ) | _json_values
    fields = draw(st.fixed_dictionaries({}, optional={
        "meta": _json_values, "plan": _json_values, "summary": summary,
        "records": st.lists(record, max_size=3) | _json_values,
    }))
    doc = {"schema": "repro-faults-report/v1", **fields}
    return _mangled(draw, _valid_fault_report(), st.just(json.dumps(doc).encode()))


_spec_numbers = (st.floats(0.1, 0.9) | st.floats(1.5, 1e3)
                 | st.floats(allow_nan=True, allow_infinity=True) | _json_values)


@st.composite
def _slo_spec_bytes(draw) -> bytes:
    fields = draw(st.fixed_dictionaries({}, optional={
        "name": st.just("s") | _json_values,
        **{k: _spec_numbers for k in ("deadline_s", "budget_usd", "warn_ratio",
                                      "predictor_drift_threshold", "straggler_slowdown")},
        "stage_budgets_usd": st.dictionaries(
            st.sampled_from(["0", "1", "-1", "x"]) | st.text(max_size=3), _spec_numbers,
            max_size=2) | _json_values,
    }))
    doc = {"schema": "repro-slo/v1", **fields}
    valid = json.dumps(MALFORMED_FILES["slo-ok.json"]).encode()
    return _mangled(draw, valid, st.just(json.dumps(doc).encode()))


#: Argv tokens a fuzzed journal header may carry: none writes a file.
_ARGV_TOKENS = ["train", "tune", "lr-higgs", "nosuch", "--seed", "0", "-3", "--method",
                "nope", "--journal", "x.journal", "--help"]


@st.composite
def _journal_bytes(draw, valid: bytes) -> bytes:
    """``valid`` with a mutated header and a prefix of its records, or
    truncated, or byte-mutated."""
    header, *records = valid.decode().splitlines()
    doc = json.loads(header)
    args = doc["run"]["args"]
    where = draw(st.sampled_from(["run", "args", "argv", "field", "drop"]))
    if where == "run":
        doc["run"] = draw(_json_values)
    elif where == "args":
        doc["run"]["args"] = draw(_json_values)
    elif where == "argv":
        args["_argv"] = draw(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6) | _json_values)
    else:
        key = draw(st.sampled_from(sorted(args)))
        if where == "drop":
            del args[key]
        else:
            args[key] = draw(_json_values)
    kept = records[:draw(st.integers(0, len(records) - 1))]
    shaped = "\n".join([json.dumps(doc, sort_keys=True), *kept]) + "\n"
    return _mangled(draw, valid, st.just(shaped.encode()))


#: Values a fuzzed manifest field may take: paths that leave DEST, digests
#: of the wrong shape, a count that is a bool, or any JSON value.
_MANIFEST_VALUES = st.sampled_from(
    ["../escape.json", "sub/x.json", "trace.json", "A" * 64, "0" * 64, -1, True]
) | _json_values


@st.composite
def _manifest_bytes(draw, valid: bytes) -> bytes:
    """``valid`` with one field of its manifest replaced or one artifact row
    added or dropped, or truncated, or byte-mutated."""
    doc = json.loads(valid)
    value = draw(_MANIFEST_VALUES)
    where = draw(st.sampled_from(["top", "meta", "provenance", "summary", "entry",
                                  "append", "drop"]))
    rows = doc["artifacts"]
    if where == "top":
        doc[draw(st.sampled_from(sorted(doc)))] = value
    elif where == "meta":
        doc["meta"][draw(st.sampled_from(["command", "workload", "seed", "provenance"]))] = value
    elif where == "provenance":
        doc["meta"]["provenance"][draw(st.sampled_from(["argv", "package_version"]))] = value
    elif where == "summary":
        doc["summary"][draw(st.sampled_from(["jct_s", "cost_usd", "converged"]))] = value
    elif where == "entry":
        entry = rows[draw(st.integers(0, len(rows) - 1))]
        entry[draw(st.sampled_from(sorted(entry)))] = value
    elif where == "append":
        rows.append(dict(rows[draw(st.integers(0, len(rows) - 1))])
                    if draw(st.booleans()) else value)
    else:
        del rows[draw(st.integers(0, len(rows) - 1))]
    return _mangled(draw, valid, st.just(json.dumps(doc).encode()))


def _tree(root: Path) -> set[Path]:
    return set(root.rglob("*"))


def _run_in_process(argv: list[str]) -> int:
    """Run the CLI and return its exit code; any exit but 0/1/2, or exit 2
    without one stderr line, fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith(f"repro {argv[0]}: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
    return rc


class TestCaptureFuzz:
    """Any event log, telemetry, profile, timeseries, fault plan,
    fault report, SLO spec, run-store manifest or run journal ends in exit
    0, 1 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("capture-fuzz")
        (root / "spec.json").write_text(json.dumps(MALFORMED_FILES["slo-ok.json"]))
        (root / "events.jsonl").write_bytes(_valid_events())
        (root / "profile.json").write_bytes(_valid_profile())
        (root / "timeseries.json").write_bytes(_valid_timeseries())
        (root / "telemetry.json").write_bytes(_valid_telemetry())
        return root

    @given(data=_events_bytes())
    @settings(max_examples=200, deadline=None)
    def test_slo_survives_any_event_log(self, workdir, data):
        path = workdir / "fuzz-events.jsonl"
        path.write_bytes(data)
        _run_in_process(["slo", "--spec", str(workdir / "spec.json"), "--capture", str(path)])

    @given(data=_telemetry_bytes())
    @settings(max_examples=200, deadline=None)
    def test_readers_survive_any_telemetry(self, workdir, data):
        path = workdir / "fuzz-telemetry.json"
        path.write_bytes(data)
        _run_in_process(["slo", "--spec", str(workdir / "spec.json"), "--capture", str(path)])
        _run_in_process(["diagnose", str(path)])

    @given(data=_profile_bytes())
    @settings(max_examples=200, deadline=None)
    def test_profile_readers_survive_any_capture(self, workdir, data):
        path = str(workdir / "fuzz-profile.json")
        (workdir / "fuzz-profile.json").write_bytes(data)
        _run_in_process(["profile", "--validate", path])
        _run_in_process(["profile", "--diff", path, path])
        _run_in_process(["profile", "--diff", str(workdir / "profile.json"), path])

    @given(data=_timeseries_bytes())
    @settings(max_examples=200, deadline=None)
    def test_timeseries_readers_survive_any_capture(self, workdir, data):
        path = str(workdir / "fuzz-timeseries.json")
        (workdir / "fuzz-timeseries.json").write_bytes(data)
        _run_in_process(["timeseries", "validate", path])
        _run_in_process(["timeseries", "diff", path, path])
        _run_in_process(["timeseries", "diff", str(workdir / "timeseries.json"), path])
        _run_in_process(["dash", "--replay", path])

    @given(case=_epoch_log_bytes())
    @settings(max_examples=200, deadline=None)
    def test_diagnose_survives_any_event_log(self, workdir, case):
        """An epoch_done row with a missing or malformed field is rejected,
        never rounded or skipped; a well-formed timeline is read."""
        data, well_formed = case
        path = str(workdir / "fuzz-epochs.jsonl")
        (workdir / "fuzz-epochs.jsonl").write_bytes(data)
        rc = _run_in_process(["diagnose", str(workdir / "telemetry.json"), "--events", path])
        if well_formed is not None:
            assert rc == (0 if well_formed else 2)

    @given(data=_fault_plan_bytes())
    @settings(max_examples=200, deadline=None)
    def test_faults_validate_survives_any_plan(self, workdir, data):
        path = workdir / "fuzz-plan.json"
        path.write_bytes(data)
        _run_in_process(["faults", "validate", str(path)])

    @given(data=_fault_report_bytes())
    @settings(max_examples=200, deadline=None)
    def test_fault_report_readers_survive_any_report(self, workdir, data):
        path = str(workdir / "fuzz-fault-report.json")
        (workdir / "fuzz-fault-report.json").write_bytes(data)
        _run_in_process(["faults", "summarize", path])
        _run_in_process(["faults", "summarize", path, "--format", "json"])
        _run_in_process(["diagnose", str(workdir / "telemetry.json"), "--fault-report", path])

    @given(data=_slo_spec_bytes())
    @settings(max_examples=200, deadline=None)
    def test_slo_survives_any_spec(self, workdir, data):
        path = workdir / "fuzz-spec.json"
        path.write_bytes(data)
        _run_in_process(["slo", "--spec", str(path), "--capture",
                         str(workdir / "events.jsonl")])

    @pytest.fixture(scope="class")
    def run_store(self, workdir) -> Path:
        """A store holding one run with an event log, telemetry and trace."""
        stamp = ProvenanceStamp.collect("train", workload="lr-higgs", seed=0,
                                        argv=["train", "lr-higgs"])
        texts = {"events": _valid_events(), "telemetry": _valid_telemetry(),
                 "trace": _valid_trace()}
        RunStore(workdir / "template-store").save(RunBundle(
            stamp, {kind: text.decode() for kind, text in texts.items()},
            summary={"jct_s": 84.0, "cost_usd": 1.2, "converged": True}))
        return workdir / "template-store"

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_runs_readers_survive_any_manifest(self, workdir, run_store, data):
        """No action writes outside DEST, and gc deletes no object while the
        manifest is malformed."""
        store, dest = workdir / "fuzz-store", workdir / "fuzz-dest"
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(run_store, store)
        (path,) = (store / "manifests").glob("*.json")
        path.write_bytes(data.draw(_manifest_bytes(path.read_bytes())))
        try:
            load_manifest(path.read_text(encoding="utf-8"))
            malformed = False
        except ValueError:
            malformed = True
        objects = _tree(store / "objects")
        before = _tree(workdir)
        for argv in (["show", path.stem], ["list"], ["compare", path.stem, path.stem],
                     ["export", path.stem, str(dest)], ["gc"]):
            _run_in_process(["runs", *argv, "--store", str(store)])
        assert all(p == dest or dest in p.parents for p in _tree(workdir) - before)
        if malformed:
            assert _tree(store / "objects") == objects

    @pytest.fixture(scope="class")
    def committed_journal(self, workdir) -> bytes:
        """The journal of a short run, committed."""
        path = workdir / "template.journal"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "lr-higgs", "--seed", "0", "--journal", str(path)]) == 0
        return path.read_bytes()

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_resume_survives_any_journal(self, workdir, committed_journal, data):
        """Most examples replay the whole run, so they are few."""
        path = workdir / "fuzz.journal"
        path.write_bytes(data.draw(_journal_bytes(committed_journal)))
        _run_in_process(["resume", str(path)])
