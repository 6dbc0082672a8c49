"""Baseline suppression: accepted findings that don't gate CI.

A baseline entry identifies a finding by ``(rule, path, snippet)`` — the
stripped source line, not the line number, so unrelated edits above a
finding don't invalidate it. Each entry carries a ``count`` (how many
occurrences of that key are accepted) and a human ``reason``; the file is
JSON (schema ``repro-baseline/v1``), written sorted so regeneration is
diff-stable.

A finding that matches an entry is reported with ``baselined: true`` and
does not fail the lint; anything beyond an entry's ``count`` is new.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding
from repro.common.errors import BaselineError

BASELINE_SCHEMA = "repro-baseline/v1"
DEFAULT_BASELINE_NAME = "lint-baseline.json"


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    rule: str
    path: str
    snippet: str
    count: int = 1
    reason: str = ""

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)


@dataclass(slots=True)
class Baseline:
    """The accepted-findings ledger."""

    entries: list[BaselineEntry]

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(entries=[])

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BaselineError(
                f"baseline {path} must be a JSON object, "
                f"not {type(payload).__name__}"
            )
        if payload.get("schema") != BASELINE_SCHEMA:
            raise BaselineError(
                f"baseline {path} declares schema {payload.get('schema')!r}; "
                f"expected {BASELINE_SCHEMA!r}"
            )
        raw_entries = payload.get("entries", [])
        if not isinstance(raw_entries, list):
            raise BaselineError(
                f"baseline {path}: 'entries' must be a list, "
                f"not {type(raw_entries).__name__}"
            )
        entries = []
        for raw in raw_entries:
            try:
                entries.append(
                    BaselineEntry(
                        rule=str(raw["rule"]),
                        path=str(raw["path"]),
                        snippet=str(raw["snippet"]),
                        count=int(raw.get("count", 1)),
                        reason=str(raw.get("reason", "")),
                    )
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise BaselineError(
                    f"baseline {path} has a malformed entry: {raw!r}"
                ) from exc
        return cls(entries=entries)

    @classmethod
    def from_findings(
        cls, findings: list[Finding], reason: str = "accepted at baseline creation"
    ) -> "Baseline":
        counts: dict[tuple[str, str, str], int] = {}
        for f in findings:
            key = (f.rule, f.path, f.snippet)
            counts[key] = counts.get(key, 0) + 1
        return cls(
            entries=[
                BaselineEntry(
                    rule=rule, path=path, snippet=snippet, count=n, reason=reason
                )
                for (rule, path, snippet), n in sorted(counts.items())
            ]
        )

    # ------------------------------------------------------------------ apply
    def apply(self, findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Split findings into (new, baselined), preserving sort order."""
        budget: dict[tuple[str, str, str], int] = {}
        for entry in self.entries:
            budget[entry.key] = budget.get(entry.key, 0) + entry.count
        new: list[Finding] = []
        accepted: list[Finding] = []
        for f in findings:
            key = (f.rule, f.path, f.snippet)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                accepted.append(f.with_baselined())
            else:
                new.append(f)
        return new, accepted

    # ------------------------------------------------------------------ export
    def to_payload(self) -> dict:
        return {
            "schema": BASELINE_SCHEMA,
            "entries": [
                {
                    "rule": e.rule,
                    "path": e.path,
                    "snippet": e.snippet,
                    "count": e.count,
                    "reason": e.reason,
                }
                for e in sorted(self.entries, key=lambda e: e.key)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def save(self, path: Path) -> None:
        path.write_text(self.to_json(), encoding="utf-8")


def find_baseline(start: Path, explicit: str | None = None) -> Path | None:
    """Locate the baseline file.

    An explicit path wins (and must exist); otherwise walk up from
    ``start`` looking for ``lint-baseline.json`` — linting ``src/repro``
    from anywhere inside the repository finds the committed ledger.
    """
    if explicit is not None:
        path = Path(explicit)
        if not path.is_file():
            raise BaselineError(f"baseline file not found: {path}")
        return path
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in [cur, *cur.parents]:
        path = candidate / DEFAULT_BASELINE_NAME
        if path.is_file():
            return path
    return None
