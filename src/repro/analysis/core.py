"""Rule framework for the determinism & simulation-safety linter.

The reproduction's invariants — all randomness through ``repro.common.rng``,
simulated time from the ``repro.kernel`` event clock, byte-identical
exports — are enforced here as machine-checked AST rules instead of
conventions. A :class:`Rule` inspects one :class:`ModuleContext`
(a parsed source file plus its logical location in the package) and yields
:class:`Finding`\\ s with stable identifiers (``REP001`` ...), which the
``repro lint`` CLI renders as a table or a deterministic ``repro-lint/v1``
JSON document.

Suppression is per physical line::

    t0 = time.perf_counter()  # lint: ignore[REP002]

A bare ``# lint: ignore`` silences every rule on that line; a file whose
first five lines contain ``# lint: skip-file`` is skipped entirely.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.common.errors import AnalysisError

#: Severities, in decreasing order of concern. Both gate CI; the split only
#: communicates whether a finding breaks reproducibility outright ("error")
#: or merely risks it under maintenance ("warning").
SEVERITIES = ("error", "warning")

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*lint:\s*skip-file")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # stable rule id, e.g. "REP002"
    severity: str  # one of SEVERITIES
    path: str  # package-relative posix path, e.g. "repro/faas/platform.py"
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    snippet: str = ""  # stripped source line, used for baseline matching
    baselined: bool = False

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def with_baselined(self) -> "Finding":
        return Finding(
            rule=self.rule, severity=self.severity, path=self.path,
            line=self.line, col=self.col, message=self.message,
            snippet=self.snippet, baselined=True,
        )


@dataclass(slots=True)
class ModuleContext:
    """One parsed source file plus its logical package location.

    ``parts`` is the dotted-module path split into components (for
    ``src/repro/faas/platform.py`` that is ``("repro", "faas", "platform")``),
    which is what path-scoped rules match against; fixture trees reproduce
    a scope simply by placing a file under a directory of the same name.
    """

    path: Path
    relpath: str
    parts: tuple[str, ...]
    source: str
    lines: list[str]
    tree: ast.Module
    suppressions: dict[int, set[str] | None] = field(default_factory=dict)

    def in_package(self, *names: str) -> bool:
        """True when any directory component matches one of ``names``."""
        return any(p in names for p in self.parts[:-1])

    def endswith(self, suffix: str) -> bool:
        """Match the tail of the relative path, e.g. ``common/rng.py``."""
        return self.relpath.endswith(suffix)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line, ...)
        if rules is ...:
            return False
        return rules is None or finding.rule in rules  # type: ignore[union-attr]


class Rule:
    """Base class: one named analysis with a stable identifier.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` narrows the rule to part of the package layout.
    """

    rule_id: str = "REP000"
    name: str = "unnamed"
    severity: str = "error"
    rationale: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        lineno = int(getattr(node, "lineno", 1))
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=ctx.relpath,
            line=lineno,
            col=int(getattr(node, "col_offset", 0)),
            message=message,
            snippet=ctx.line_at(lineno),
        )


def parse_suppressions(lines: list[str]) -> dict[int, set[str] | None]:
    """Per-line suppression directives (``None`` silences every rule)."""
    out: dict[int, set[str] | None] = {}
    for i, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        if m.group(1) is None:
            out[i] = None
        else:
            out[i] = {tok.strip() for tok in m.group(1).split(",") if tok.strip()}
    return out


def should_skip_file(lines: list[str]) -> bool:
    return any(_SKIP_FILE_RE.search(line) for line in lines[:5])


def build_context(path: Path, relpath: str) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext`.

    Raises :class:`AnalysisError` on unreadable files; syntax errors are the
    caller's concern (the walker turns them into ``REP000`` findings).
    """
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    stem_parts = relpath[:-3] if relpath.endswith(".py") else relpath
    return ModuleContext(
        path=path,
        relpath=relpath,
        parts=tuple(stem_parts.split("/")),
        source=source,
        lines=lines,
        tree=tree,
        suppressions=parse_suppressions(lines),
    )


def run_rules(
    ctx: ModuleContext, rules: Iterable[Rule]
) -> tuple[list[Finding], int]:
    """Apply ``rules`` to one module; returns (kept findings, n suppressed)."""
    kept: list[Finding] = []
    suppressed = 0
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept, suppressed
