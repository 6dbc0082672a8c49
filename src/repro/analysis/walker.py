"""File discovery and analysis orchestration.

``collect_files`` resolves CLI path arguments into a sorted, de-duplicated
list of Python files; ``analyze_paths`` parses each one and runs the rule
set over it. Discovery order is sorted by relative path so the resulting
finding list — and therefore the ``repro-lint/v1`` document — is
byte-identical across runs and filesystems (``os.scandir`` order is not).

Relative paths are anchored at each argument's parent directory, so
linting ``src/repro`` yields paths like ``repro/faas/platform.py`` — stable
identifiers for baselines regardless of where the repository lives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import (
    Finding,
    Rule,
    build_context,
    run_rules,
    should_skip_file,
)
from repro.common.errors import AnalysisError

#: Directory names never descended into.
_PRUNE_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass(slots=True)
class AnalysisResult:
    """Everything one lint pass learned."""

    findings: list[Finding]
    files_analyzed: int
    suppressed: int
    parse_errors: int = 0

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))


@dataclass(frozen=True, slots=True)
class _SourceFile:
    path: Path
    relpath: str  # posix, anchored at the lint root's parent


def collect_files(paths: Sequence[Path | str]) -> list[_SourceFile]:
    """Expand path arguments into a sorted list of Python source files."""
    out: dict[str, _SourceFile] = {}
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise AnalysisError(f"no such file or directory: {root}")
        if root.is_file():
            rel = root.name
            out.setdefault(str(root.resolve()), _SourceFile(root, rel))
            continue
        anchor = root.resolve().parent
        for path in sorted(root.resolve().rglob("*.py")):
            if any(part in _PRUNE_DIRS for part in path.parts):
                continue
            rel = path.relative_to(anchor).as_posix()
            out.setdefault(str(path), _SourceFile(path, rel))
    return sorted(out.values(), key=lambda s: s.relpath)


@dataclass(slots=True)
class Analyzer:
    """Runs a rule set over a set of files."""

    rules: Sequence[Rule] = field(default_factory=list)

    def analyze_paths(self, paths: Sequence[Path | str]) -> AnalysisResult:
        findings: list[Finding] = []
        suppressed = 0
        parse_errors = 0
        files = collect_files(paths)
        for src in files:
            file_findings, n_suppressed, failed = self.analyze_file(src)
            findings.extend(file_findings)
            suppressed += n_suppressed
            parse_errors += int(failed)
        findings.sort(key=Finding.sort_key)
        return AnalysisResult(
            findings=findings,
            files_analyzed=len(files),
            suppressed=suppressed,
            parse_errors=parse_errors,
        )

    def analyze_file(self, src: _SourceFile) -> tuple[list[Finding], int, bool]:
        """(findings, suppressed count, parse failed) for one file."""
        try:
            ctx = build_context(src.path, src.relpath)
        except SyntaxError as exc:
            return (
                [
                    Finding(
                        rule="REP000",
                        severity="error",
                        path=src.relpath,
                        line=int(exc.lineno or 1),
                        col=int(exc.offset or 0),
                        message=f"syntax error: {exc.msg}",
                    )
                ],
                0,
                True,
            )
        if should_skip_file(ctx.lines):
            return [], 0, False
        findings, n_suppressed = run_rules(ctx, self.rules)
        return findings, n_suppressed, False


def analyze_source(
    source: str,
    rules: Iterable[Rule],
    relpath: str = "module.py",
) -> list[Finding]:
    """Lint an in-memory source string (test and tooling hook).

    ``relpath`` positions the snippet in the package layout so path-scoped
    rules (``faas/``, ``common/rng.py`` ...) behave as they would on disk.
    """
    lines = source.splitlines()
    if should_skip_file(lines):
        return []
    from repro.analysis.core import ModuleContext, parse_suppressions

    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    ctx = ModuleContext(
        path=Path(relpath),
        relpath=relpath,
        parts=tuple(stem.split("/")),
        source=source,
        lines=lines,
        tree=ast.parse(source),
        suppressions=parse_suppressions(lines),
    )
    findings, _ = run_rules(ctx, list(rules))
    return findings
