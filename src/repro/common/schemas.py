"""The top-level key set of every versioned JSON document the repo emits.

Downstream tooling keys on these layouts, so each one is a contract: a new
top-level field means a schema version bump or a deliberate update here.
Two things read the registry: check REP006 of
``tests/test_source_invariants.py``, which holds every ``{"schema": ...}``
dict literal in the source to it, and the profile, timeseries and bundle
loaders, which check a document read at run time against it.
"""

from __future__ import annotations

#: The checked-in key sets for every versioned document the repo emits.
SCHEMA_KEYS: dict[str, frozenset[str]] = {
    "repro-telemetry/v1": frozenset({"schema", "meta", "run", "metrics"}),
    "repro-journal/v1": frozenset({"schema", "kind", "run", "meta"}),
    "repro-diagnostics/v4": frozenset(
        {
            "schema", "meta", "critical_path", "breakdown", "stragglers",
            "drift", "regret", "findings",
        }
    ),
    "repro-slo/v1": frozenset(
        {
            "schema", "name", "deadline_s", "budget_usd", "stage_budgets_usd",
            "warn_ratio", "predictor_drift_threshold", "straggler_slowdown",
        }
    ),
    "repro-events/v1": frozenset({"schema", "meta"}),
    "repro-slo-report/v1": frozenset(
        {"schema", "meta", "spec", "objectives", "alerts", "verdict"}
    ),
    "repro-faults/v1": frozenset(
        {
            "schema", "name", "crash_prob", "crash_mid_fraction",
            "invocation_timeout_s", "cold_start_failure_prob", "storage",
            "permanent_loss", "retry",
        }
    ),
    "repro-faults-report/v1": frozenset(
        {"schema", "meta", "plan", "summary", "records"}
    ),
    "repro-profile/v1": frozenset({"schema", "meta", "frames", "totals"}),
    "repro-timeseries/v1": frozenset(
        {"schema", "meta", "series", "markers", "totals"}
    ),
    "repro-bundle/v1": frozenset(
        {"schema", "meta", "run_id", "artifacts", "summary"}
    ),
    "repro-compare/v2": frozenset(
        {
            "schema", "kind", "meta", "base", "target", "params", "rows",
            "counts", "verdict", "attribution",
        }
    ),
}
