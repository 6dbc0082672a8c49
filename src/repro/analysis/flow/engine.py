"""Flow rule catalogue (REP009–REP011, REP013) and the project-level analyzer.

Per-file rules run inside :class:`repro.analysis.walker.Analyzer`, one
module at a time. The flow rules are project-level: their ``check`` on a
single module is empty, and :func:`analyze_flow` instead parses the
whole tree into a :class:`ProjectIndex`, runs the dataflow passes, and
converts their results into ordinary :class:`Finding` objects — same
IDs, pragmas, baseline and JSON document machinery as REP001–REP008,
so ``# lint: ignore[REP011]`` and baseline entries work unchanged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    build_context,
    should_skip_file,
)
from repro.analysis.flow import rngflow, schemaflow, taint
from repro.analysis.flow.symbols import ProjectIndex
from repro.analysis.walker import AnalysisResult, collect_files


class FlowRule(Rule):
    """A project-level rule: findings come from :func:`analyze_flow`."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())


class ClockDomainTaint(FlowRule):
    rule_id = "REP009"
    name = "clock-domain-taint"
    severity = "error"
    rationale = (
        "host-clock values must never reach simulated-time arithmetic, "
        "schema'd documents, or the event bus — even through helpers"
    )


class RngStreamHygiene(FlowRule):
    rule_id = "REP010"
    name = "rng-stream-hygiene"
    severity = "error"
    rationale = (
        "stream_for() call sites must be statically distinguishable: "
        "identical constant label tuples draw the same stream"
    )


class RngGeneratorEscape(FlowRule):
    rule_id = "REP011"
    name = "rng-generator-escape"
    severity = "warning"
    rationale = (
        "RNG generators bound to module globals are shared mutable "
        "state: every caller in the process draws from one sequence"
    )


class SchemaProducerDrift(FlowRule):
    rule_id = "REP013"
    name = "schema-producer-drift"
    severity = "warning"
    rationale = (
        "keys added to a versioned document after its literal — "
        "directly or via helpers — must match the registered key set"
    )


_FLOW_RULE_CLASSES: tuple[type[FlowRule], ...] = (
    ClockDomainTaint,
    RngStreamHygiene,
    RngGeneratorEscape,
    SchemaProducerDrift,
)


def flow_rules() -> list[Rule]:
    """Instances of the flow rule catalogue, sorted by rule id."""
    return sorted(
        (cls() for cls in _FLOW_RULE_CLASSES), key=lambda r: r.rule_id
    )


def flow_rules_by_id() -> dict[str, Rule]:
    return {r.rule_id: r for r in flow_rules()}


def build_index(
    paths: Sequence[Path | str],
) -> tuple[ProjectIndex, list[Finding], int, int]:
    """Parse ``paths`` into a :class:`ProjectIndex`.

    Returns ``(index, parse-error findings, files seen, files skipped)``.
    Files bearing ``# lint: skip-file`` are excluded from the index —
    they asked to be invisible to analysis — and unparseable files
    surface as REP000 findings exactly as in the per-file walker.
    """
    contexts: list[ModuleContext] = []
    errors: list[Finding] = []
    skipped = 0
    files = collect_files(paths)
    for src in files:
        try:
            ctx = build_context(src.path, src.relpath)
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="REP000",
                    severity="error",
                    path=src.relpath,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0),
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        if should_skip_file(ctx.lines):
            skipped += 1
            continue
        contexts.append(ctx)
    return ProjectIndex(contexts), errors, len(files), skipped


def analyze_flow(
    paths: Sequence[Path | str],
    select: set[str] | None = None,
) -> AnalysisResult:
    """Run every flow pass (or the ``select``\\ ed subset) over ``paths``."""
    index, parse_findings, n_files, _ = build_index(paths)
    rules = flow_rules_by_id()
    wanted = set(rules) if select is None else (set(rules) & select)

    raw: dict[str, list[tuple[ModuleContext, ast.AST, str]]] = {}
    if "REP009" in wanted:
        raw["REP009"] = taint.run_clock_taint(index)
    if "REP010" in wanted:
        raw["REP010"] = rngflow.run_stream_hygiene(index)
    if "REP011" in wanted:
        raw["REP011"] = rngflow.run_generator_escape(index)
    if "REP013" in wanted:
        raw["REP013"] = schemaflow.run_schema_producers(index)

    findings: list[Finding] = list(parse_findings)
    suppressed = 0
    for rule_id in sorted(raw):
        rule = rules[rule_id]
        for ctx, node, message in raw[rule_id]:
            finding = rule.finding(ctx, node, message)
            if ctx.is_suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return AnalysisResult(
        findings=findings,
        files_analyzed=n_files,
        suppressed=suppressed,
        parse_errors=len(parse_findings),
    )
