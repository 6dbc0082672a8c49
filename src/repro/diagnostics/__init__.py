"""Run diagnostics: critical path, breakdown, stragglers, drift, regret.

The engine turns a finished run into structured, deterministic findings.
A run is read through one builder, :meth:`RunObservation.from_capture`:
its telemetry document plus, for the epoch timeline, its event log, whose
``epoch_done`` rows carry each epoch's record. A saved capture and a live
run under :class:`~repro.runs.Instruments` take the same path:

>>> import json
>>> from repro.diagnostics import RunObservation, diagnose
>>> from repro.runs import Instruments
>>> from repro.workflow import run_training
>>> with Instruments(kinds={"telemetry", "events"}) as ins:   # doctest: +SKIP
...     run = run_training("lr-higgs", budget_usd=2.0)
...     ins.set_run_summary({"jct_s": run.result.jct_s})
>>> obs = RunObservation.from_capture(                       # doctest: +SKIP
...     json.loads(ins.texts["telemetry"]), ins.log)
>>> print(diagnose(obs).render())                            # doctest: +SKIP
"""

from repro.diagnostics.critical_path import (
    COMPONENT_ORDER,
    BottleneckSpan,
    ComponentShare,
    CriticalPathAnalysis,
    RestartOverheadSplit,
    analyze_critical_path,
)
from repro.diagnostics.drift import DriftAudit, DriftPoint, audit_model_drift
from repro.diagnostics.engine import (
    JSON_SCHEMA,
    Breakdown,
    DiagnosticsReport,
    Finding,
    diagnose,
)
from repro.diagnostics.regret import RegretAudit, RegretPoint, audit_regret
from repro.diagnostics.stragglers import (
    StragglerAnalysis,
    StragglerFinding,
    detect_stragglers,
)
from repro.diagnostics.timeline import EpochObservation, RunObservation

__all__ = [
    "COMPONENT_ORDER",
    "JSON_SCHEMA",
    "BottleneckSpan",
    "Breakdown",
    "ComponentShare",
    "CriticalPathAnalysis",
    "DiagnosticsReport",
    "DriftAudit",
    "DriftPoint",
    "EpochObservation",
    "Finding",
    "RegretAudit",
    "RegretPoint",
    "RestartOverheadSplit",
    "RunObservation",
    "StragglerAnalysis",
    "StragglerFinding",
    "analyze_critical_path",
    "audit_model_drift",
    "audit_regret",
    "detect_stragglers",
    "diagnose",
]
