"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


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
        """Acceptance path: train --telemetry/--trace, then repro report."""
        import json

        metrics = tmp_path / "out.json"
        trace = tmp_path / "out.trace.json"
        assert main(
            [
                "train", "lr-higgs", "--budget-multiple", "2.5",
                "--telemetry", str(metrics), "--trace", str(trace),
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

        assert main(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "time breakdown" in out
        assert "cost breakdown" in out
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

    def test_report_prometheus_output(self, tmp_path, capsys):
        metrics = tmp_path / "out.json"
        assert main(
            [
                "train", "lr-higgs", "--budget-multiple", "2.5",
                "--telemetry", str(metrics),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(metrics), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_faas_invocations_total counter" in out


#: Malformed input files, written side by side for each CLI case below.
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
    "trace.json": {"traceEvents": []},
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
            ["slo", "lr-higgs", "--spec", "spec.json"],
            ["train", "lr-higgs", "--slo", "spec.json"],
            ["report", "array.json"],
            ["diagnose", "array.json"],
            ["diagnose", "telemetry.json", "--trace", "trace.json"],
            ["train", "lr-higgs", "--budget", "2.0", "--seed", "-1"],
            ["tune", "lr-higgs", "--seed", "x"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
    )
    def test_one_line_exit_two(self, argv, tmp_path):
        for name, payload in MALFORMED_FILES.items():
            (tmp_path / name).write_text(json.dumps(payload))
        _assert_one_line_exit_two(argv, tmp_path)

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
            ["profile", "lr-higgs", "--run", "train", "--budget", "inf"],
            ["diagnose", "lr-higgs", "--qos-multiple", "-1"],
            ["dash", "lr-higgs", "--budget-multiple", "x"],
            ["slo", "lr-higgs", "--spec", "spec.json", "--budget", "0"],
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
            ["profile", "lr-higgs", "--run", "workflow",
             "--tuning-fraction", "nan"],
            ["diagnose", "lr-higgs", "--straggler", "x"],
        ],
        ids=" ".join,
    )
    def test_bad_argument_exit_two(self, argv, tmp_path):
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
