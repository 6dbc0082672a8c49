"""Static analysis for determinism and simulation safety.

The reproduction's core promises — one seed reproduces every figure
bit-exactly, simulated time never touches the host clock, exported
artifacts are byte-stable — are invariants of the *source*, so this
package checks them at the source level: a pluggable AST rule framework
(:mod:`repro.analysis.core`), a package-aware walker
(:mod:`repro.analysis.walker`), the rule catalogue
(:mod:`repro.analysis.rules`, IDs ``REP001``–``REP008``), a baseline
ledger for accepted findings (:mod:`repro.analysis.baseline`), the
deterministic ``repro-lint/v1`` report (:mod:`repro.analysis.report`),
and an interprocedural flow layer (:mod:`repro.analysis.flow`, IDs
``REP009``–``REP011`` and ``REP013``: call graph, clock-domain taint,
RNG stream hygiene, schema producer cross-check).

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
from repro.analysis.flow import (
    CALLGRAPH_SCHEMA,
    CallGraph,
    ProjectIndex,
    analyze_flow,
    build_callgraph,
    build_index,
    callgraph_payload,
    callgraph_to_dot,
    callgraph_to_json,
    flow_rules,
    flow_rules_by_id,
)
from repro.analysis.report import (
    LINT_SCHEMA,
    render_rule_list,
    render_table,
    to_json,
    to_payload,
)
from repro.analysis.rules import SCHEMA_KEYS, all_rules, rules_by_id
from repro.analysis.walker import (
    AnalysisResult,
    Analyzer,
    analyze_source,
    collect_files,
)

__all__ = [
    "BASELINE_SCHEMA",
    "CALLGRAPH_SCHEMA",
    "DEFAULT_BASELINE_NAME",
    "LINT_SCHEMA",
    "SCHEMA_KEYS",
    "SEVERITIES",
    "AnalysisResult",
    "Analyzer",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "Finding",
    "ModuleContext",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "analyze_flow",
    "analyze_source",
    "build_callgraph",
    "build_index",
    "callgraph_payload",
    "callgraph_to_dot",
    "callgraph_to_json",
    "collect_files",
    "find_baseline",
    "flow_rules",
    "flow_rules_by_id",
    "render_rule_list",
    "render_table",
    "rules_by_id",
    "run_rules",
    "to_json",
    "to_payload",
]
