"""Interprocedural flow analysis: call graph, taint, RNG and schema flow.

Where ``repro.analysis.rules`` checks one file at a time, this package
sees the whole program: a project symbol table (:mod:`.symbols`), a
deterministic call graph (:mod:`.callgraph`, ``repro-callgraph/v1``),
and three dataflow passes packaged as rules REP009–REP011 and
REP013 — clock-domain taint (:mod:`.taint`), RNG stream hygiene
(:mod:`.rngflow`), and the schema producer cross-check
(:mod:`.schemaflow`). ``repro lint --flow`` and ``repro analyze``
are the CLI surfaces; :func:`analyze_flow` is the library entry point.
"""

from repro.analysis.flow.callgraph import (
    CALLGRAPH_SCHEMA,
    CallEdge,
    CallGraph,
    build_callgraph,
    callgraph_payload,
    callgraph_to_dot,
    callgraph_to_json,
)
from repro.analysis.flow.engine import (
    FlowRule,
    analyze_flow,
    build_index,
    flow_rules,
    flow_rules_by_id,
)
from repro.analysis.flow.symbols import ProjectIndex, module_name_of

__all__ = [
    "CALLGRAPH_SCHEMA",
    "CallEdge",
    "CallGraph",
    "FlowRule",
    "ProjectIndex",
    "analyze_flow",
    "build_callgraph",
    "build_index",
    "callgraph_payload",
    "callgraph_to_dot",
    "callgraph_to_json",
    "flow_rules",
    "flow_rules_by_id",
    "module_name_of",
]
