"""Golden pins of the SLO guard's output for four guarded runs.

Each case runs one command under a spec tight enough to make the guard
fire, writes its ``repro-events/v1`` log (the run's events plus the
guard's mirrored ``alert_*`` lines) and replays that log with ``repro
slo --format json``. The sha256 of the log and of the
``repro-slo-report/v1`` document are pinned against constants recorded
before the burn-rate accountant, the alert engine and the guard became
one :class:`~repro.slo.guard.SLOGuard`. Any change to an alert's firing
time, its message, the order of the mirrored lines or a state's last
digit moves a hash. Later, ``epoch_done`` rows gained the epoch's
``EpochRecord`` fields (:data:`RECORD_KEYS`): the log pins hash the log
with those keys dropped, so they stay the pre-merge constants, and
:data:`FULL_EVENT_PINS` pins the whole log.

Together the cases fire every rule in :data:`repro.slo.RULES`:

* ``train`` and ``faulted``: the deadline and budget rules (exhausted,
  projected, burn), ``predictor-drift`` and ``straggler``;
* ``tune``: ``stage-budget-overrun`` on a SHA stage sub-budget;
* ``workflow``: a deadline only the sum of the ``tune`` and ``train``
  clocks crosses, the budget rules, drift and a stage sub-budget.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.slo import RULES

FAULT_PLAN = Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"

_TIGHT = {"name": "tight", "deadline_s": 55.0, "budget_usd": 1.2,
          "straggler_slowdown": 1.05}

SPECS = {
    "train": _TIGHT,
    "faulted": _TIGHT,
    "tune": {"name": "stages", "stage_budgets_usd": {"0": 0.05, "2": 0.5}},
    "workflow": {"name": "campaign", "deadline_s": 110.0, "budget_usd": 3.5,
                 "stage_budgets_usd": {"0": 0.4}},
}

ARGV = {
    "train": ["train", "lr-higgs", "--seed", "0"],
    "faulted": ["train", "lr-higgs", "--seed", "0", "--faults", str(FAULT_PLAN)],
    "tune": ["tune", "lr-higgs", "--trials", "16", "--seed", "0"],
    "workflow": ["workflow", "lr-higgs", "--trials", "16", "--budget", "25",
                 "--seed", "0"],
}

RULE_NAMES = (
    "deadline-exhausted", "deadline-projected-miss", "deadline-burn",
    "budget-exhausted", "budget-projected-overrun", "budget-burn",
    "stage-budget-overrun", "predictor-drift", "straggler",
)

PINS = {
    "train": {
        "events": "4296a8742aca121bf3fec8551d9704ec29b33c30b8b3c59ce69c15a5b7f62aaa",
        "report": "a2597a722c847337ad10def215a1d7611652199ad18b736f25b3dbf18f8b19d1",
    },
    "faulted": {
        "events": "b382b59d4bd5a7ec39cfc2194df3b416ecc4088765ddc6041e4161d958bd0b59",
        "report": "4401f0e347b6b7fdff4e05359bd535c1fa58983327c208de03b2ee6199a09972",
    },
    "tune": {
        "events": "b8442b6fda98ac0c72d1844eaa0f49211aaa0934a75609e1365df6bb4f9f32a8",
        "report": "f0058b4cdda54c6ca090b2ce35455ffe7af4aa770899a3d53706ace4f7018ac6",
    },
    "workflow": {
        "events": "f985c738a09eec7816f3db4ff3404e44d269222b8d2d9355d11a2f744b6c38e2",
        "report": "e71fb4a7f383fd593b3930a22b0f2d3fe5076b75c31b4b29f2989c75592e580a",
    },
}


#: The ``epoch_done`` keys added after :data:`PINS` were recorded (the
#: ``queue_wait_s`` added with them is gone again).
RECORD_KEYS = ("load_s", "compute_s", "sync_s", "cold_start_s",
               "invocation_usd", "compute_usd", "storage_usd", "worker_durations_s")

#: sha256 of each whole log, ``epoch_done`` record fields included.
FULL_EVENT_PINS = {
    "train": "2e95451ed6819b884ae142a445751c47a59b463ed4b656aaed37ae196e8c6afd",
    "faulted": "b35cf9fa856dd9cfa13ffce46271bbc1d36e3e8db5c366c3e3558e6422131705",
    "tune": "b8442b6fda98ac0c72d1844eaa0f49211aaa0934a75609e1365df6bb4f9f32a8",
    "workflow": "2c4127d56c9cfea370a1941dfc9f9cf28d758f586465bdc464274594d7ded229",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_record_keys(events: str) -> str:
    """The log with :data:`RECORD_KEYS` dropped from every ``epoch_done``
    row (each must hold them), re-rendered as the log renders rows."""
    header, *rows = events.splitlines()
    out = [header]
    for line in rows:
        row = json.loads(line)
        if row["kind"] == "epoch_done":
            for key in RECORD_KEYS:
                del row["data"][key]
        out.append(json.dumps(row, sort_keys=True))
    return "\n".join(out) + "\n"


def _guarded_run(case: str, tmp_path: Path) -> tuple[str, str]:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema": "repro-slo/v1", **SPECS[case]}))
    events = tmp_path / "events.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        live = main([*ARGV[case], "--slo", str(spec), "--events", str(events)])
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        replay = main(["slo", "--spec", str(spec), "--capture", str(events),
                       "--format", "json"])
    assert replay == live == 1
    return events.read_text(), report.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {
        case: _guarded_run(case, tmp_path_factory.mktemp(case)) for case in PINS
    }


@pytest.mark.parametrize("case", sorted(PINS))
def test_guard_output_bytes(case, outputs):
    events, report = outputs[case]
    assert {"events": _sha(_without_record_keys(events)), "report": _sha(report)} == PINS[case]
    assert _sha(events) == FULL_EVENT_PINS[case]


def test_pinned_runs_fire_every_rule(outputs):
    fired = {
        json.loads(line)["data"]["rule"]
        for events, _ in outputs.values()
        for line in events.splitlines()
        if '"alert_fired"' in line
    }
    assert fired == set(RULE_NAMES)
    assert len(RULES) == len(RULE_NAMES)
