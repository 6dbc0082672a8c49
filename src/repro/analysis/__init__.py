"""Static analysis for determinism and simulation safety.

The reproduction's core promises — one seed reproduces every figure
bit-exactly, simulated time never touches the host clock, exported
artifacts are byte-stable — are invariants of the *source*, so this
package checks them at the source level: a pluggable AST rule framework
(:mod:`repro.analysis.core`), a package-aware walker
(:mod:`repro.analysis.walker`), the rule catalogue
(:mod:`repro.analysis.rules`: ``REP001``, ``REP002``, ``REP005``–``REP007``
and ``REP014``), a baseline ledger for accepted findings
(:mod:`repro.analysis.baseline`) and the deterministic ``repro-lint/v1``
report (:mod:`repro.analysis.report`).

Entry point: ``repro lint`` (see ``docs/static-analysis.md``), which CI
runs over ``src/repro`` on every change. Stdlib-only by design.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BASELINE_SCHEMA,
    DEFAULT_BASELINE_NAME,
    Baseline,
    BaselineEntry,
    find_baseline,
)
from repro.analysis.core import (
    SEVERITIES,
    Finding,
    ModuleContext,
    Rule,
    run_rules,
)
from repro.analysis.report import (
    LINT_SCHEMA,
    render_rule_list,
    render_table,
    to_json,
    to_payload,
)
from repro.analysis.rules import all_rules, rules_by_id
from repro.analysis.walker import (
    AnalysisResult,
    Analyzer,
    analyze_source,
    collect_files,
)

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE_NAME",
    "LINT_SCHEMA",
    "SEVERITIES",
    "AnalysisResult",
    "Analyzer",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_source",
    "collect_files",
    "find_baseline",
    "render_rule_list",
    "render_table",
    "rules_by_id",
    "run_rules",
    "to_json",
    "to_payload",
]
