"""Reporting helpers shared by the experiment harness and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.common.errors import ValidationError


def normalize(values: Mapping[str, float], base: str) -> dict[str, float]:
    """Each value divided by ``values[base]`` (the paper's normalization)."""
    if base not in values:
        raise ValidationError(f"base {base!r} not in {sorted(values)}")
    denom = values[base]
    if denom == 0:
        raise ValidationError(f"base {base!r} value is zero; cannot normalize")
    return {k: v / denom for k, v in values.items()}


@dataclass
class ComparisonTable:
    """A tiny column-oriented table with aligned text rendering.

    Used by every experiment module to print the rows/series the paper's
    figures show, without pulling in a plotting stack.
    """

    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValidationError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        def fmt(v: object) -> str:
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1000:
                    return f"{v:,.0f}"
                if abs(v) >= 10:
                    return f"{v:.1f}"
                return f"{v:.3f}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)
