"""The epoch timeline comes from the event log: every epoch_done row is its
EpochRecord, and a saved capture diagnoses exactly like a live run."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.types import EpochRecord
from repro.diagnostics import EpochObservation, RunObservation, diagnose
from repro.diagnostics.timeline import read_epochs, read_metrics
from repro.faults import FaultPlan
from repro.ml.models import WORKLOADS
from repro.runs import Instruments
from repro.slo import EventLog
from repro.telemetry.exporters import to_json
from repro.telemetry.metrics import MetricsRegistry
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training

FAULT_PLAN = str(Path(__file__).parents[2] / "examples" / "fault_plan.json")


def _expected(r: EpochRecord) -> EpochObservation:
    """What the diagnostics must see of one executed epoch."""
    return EpochObservation(
        index=r.index,
        alloc_label=r.allocation.describe(),
        allocation=r.allocation,
        load_s=r.time.load_s,
        compute_s=r.time.compute_s,
        sync_s=r.time.sync_s,
        cold_start_s=r.cold_start_s,
        wall_s=r.wall_s,
        loss=r.loss,
        cost_usd=r.cost.total_usd,
        scheduling_overhead_s=r.scheduling_overhead_s,
        hidden_restart_overlap_s=r.hidden_restart_overlap_s,
        restarted=r.restarted,
        worker_durations_s=tuple(r.worker_durations_s),
    )


@pytest.fixture(scope="module")
def profiles():
    return {name: profile_workload(w) for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("method", ["ce-scaling", "cirrus-static"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rendered_log_holds_every_epoch_record(name, method, faults, seed, profiles):
    """Read back from the rendered event-log text, each epoch equals its
    EpochRecord field for field: timings, costs, per-rank durations and
    the restart split, bit for bit."""
    w, profile = WORKLOADS[name], profiles[name]
    with Instruments({}, kinds={"events"}) as ins:
        run = run_training(
            w, method=method, seed=seed, profile=profile,
            budget_usd=training_envelope(w, profile).budget(2.0),
            fault_plan=FaultPlan.load(FAULT_PLAN) if faults else None,
        )
    epochs = read_epochs(EventLog.from_jsonl(ins.texts["events"]))
    assert epochs == [_expected(r) for r in run.result.epochs]


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("name", ["lr-higgs", "mobilenet-cifar10"])
def test_capture_diagnosis_equals_live(name, faults, tmp_path, capsys):
    """`diagnose CAPTURE --events` and live `diagnose` of the same train
    arguments write the same document outside ``meta``."""
    args = [name, "--budget-multiple", "2.0", "--seed", "1", "--format", "json"]
    fault_args = ["--faults", FAULT_PLAN] if faults else []
    tel, events, report = (str(tmp_path / f) for f in ("t.json", "e.jsonl", "r.json"))
    assert main(["train", *args[:-2], *fault_args, "--telemetry", tel,
                 "--events", events, "--fault-report", report]) == 0
    capsys.readouterr()
    capture = ["diagnose", tel, "--events", events, "--format", "json"]
    assert main(capture + (["--fault-report", report] if faults else [])) == 0
    saved = json.loads(capsys.readouterr().out)
    assert main(["diagnose", *args, *fault_args]) == 0
    live = json.loads(capsys.readouterr().out)
    saved.pop("meta"), live.pop("meta")
    assert saved == live
    seconds = {c["component"]: c["seconds"] for c in saved["critical_path"]["components"]}
    assert seconds["load"] > 0 and seconds["compute"] > 0


class TestReadMetrics:
    def test_family_without_samples_reads_float_zero(self):
        totals, billed = read_metrics(
            [{"name": "repro_x_total", "type": "counter", "samples": []}]
        )
        assert totals == {"repro_x_total": 0.0}
        assert type(totals["repro_x_total"]) is float
        assert billed == {}

    def test_unfired_restart_counters_render_as_floats(self):
        reg = MetricsRegistry()
        reg.counter("repro_scheduler_restart_hidden_seconds_total")
        reg.counter("repro_scheduler_restart_visible_seconds_total")
        doc = json.loads(to_json(reg.snapshot(), run={"jct_s": 10.0}))
        restart = diagnose(RunObservation.from_capture(doc)).to_payload()[
            "critical_path"]["restart"]
        assert type(restart["hidden_s"]) is float
        assert type(restart["visible_s"]) is float
