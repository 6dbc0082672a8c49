"""REP006 — schema discipline for versioned JSON exports.

The repository promises byte-stable, versioned artifacts: telemetry
captures (``repro-telemetry/v1``), diagnostics (``repro-diagnostics/v2``),
compare reports (``repro-compare/v2``) and lint output (``repro-lint/v1``).
Downstream tooling — ``repro diagnose``, the validate commands, CI diffs —
keys on their top-level layout. This rule pins each document's top-level
key set to the registry in :mod:`repro.common.schemas`, so a drive-by
"just add a field" shows up in review as the schema change it actually is
(bump the version or update the registry deliberately).

Detection: a dict literal with a ``"schema"`` key, whose value is either a
version-string literal or a module-level constant holding one.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule
from repro.common.schemas import SCHEMA_KEYS

_VERSIONED = re.compile(r"^[a-z][a-z0-9-]*/v\d+$")


class SchemaDisciplineRule(Rule):
    """REP006: versioned-JSON top-level keys must match the registry."""

    rule_id = "REP006"
    name = "schema-discipline"
    severity = "warning"
    rationale = (
        "Versioned artifacts are diffed and parsed downstream; their "
        "top-level key sets are contracts. Changing one requires a "
        "version bump or a deliberate registry update."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        constants = _string_constants(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            schema_id, keys = self._document_shape(node, constants)
            if schema_id is None:
                continue
            expected = SCHEMA_KEYS.get(schema_id)
            if expected is None:
                yield self.finding(
                    ctx,
                    node,
                    f"document declares unregistered schema {schema_id!r}; "
                    "register its key set in repro.common.schemas",
                )
                continue
            if keys is None:
                continue  # dynamic keys (e.g. **spread) — nothing to pin
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            if missing:
                yield self.finding(
                    ctx,
                    node,
                    f"{schema_id} document is missing registered key(s) "
                    f"{missing}; emit them or bump the schema version",
                )
            if extra:
                yield self.finding(
                    ctx,
                    node,
                    f"{schema_id} document adds unregistered key(s) "
                    f"{extra}; bump the schema version or update the "
                    "registry",
                )

    @staticmethod
    def _document_shape(
        node: ast.Dict, constants: dict[str, str]
    ) -> tuple[str | None, frozenset[str] | None]:
        """(schema id, top-level literal keys) for a versioned dict literal.

        Returns ``(None, None)`` for ordinary dicts; ``(id, None)`` when the
        dict has non-literal keys so only registration can be checked.
        """
        schema_id: str | None = None
        keys: set[str] = set()
        literal_only = True
        for key, value in zip(node.keys, node.values):
            if key is None or not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                literal_only = False
                continue
            keys.add(key.value)
            if key.value != "schema":
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                candidate = value.value
            elif isinstance(value, ast.Name):
                candidate = constants.get(value.id, "")
            elif isinstance(value, ast.Attribute):
                candidate = constants.get(value.attr, "")
            else:
                candidate = ""
            if _VERSIONED.match(candidate):
                schema_id = candidate
        if schema_id is None:
            return None, None
        return schema_id, frozenset(keys) if literal_only else None


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    out: dict[str, str] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt.value.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and stmt.value is not None
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
            and isinstance(stmt.target, ast.Name)
        ):
            out[stmt.target.id] = stmt.value.value
    return out
