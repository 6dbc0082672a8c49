"""Run diagnostics: critical path, breakdown, stragglers, drift, regret.

The engine turns a finished run — live (:class:`TrainingRun`) or captured
(telemetry JSON + Chrome trace) — into structured, deterministic findings:

>>> from repro.diagnostics import RunObservation, diagnose
>>> from repro.workflow import run_training
>>> run = run_training("lr-higgs", budget_usd=2.0)        # doctest: +SKIP
>>> report = diagnose(RunObservation.from_training_run(run))  # doctest: +SKIP
>>> print(report.render())                                # doctest: +SKIP
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
