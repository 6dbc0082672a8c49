"""Unit helpers.

Internally the library uses a single convention:

* time     — seconds (float)
* data     — megabytes (float)
* memory   — megabytes (int, Lambda-style 1 MB granularity)
* money    — US dollars (float)
* bandwidth — megabytes per second
"""

from __future__ import annotations


def gb_seconds(memory_mb: float, seconds: float) -> float:
    """Lambda's billing unit: memory in GB multiplied by duration in seconds."""
    return (memory_mb / 1024.0) * seconds


def format_usd(x: float) -> str:
    """Human-readable dollar amount with sensible precision."""
    if x >= 1.0:
        return f"${x:,.2f}"
    return f"${x:.6f}"


def format_duration(seconds: float) -> str:
    """Human-readable duration."""
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.2f} min"
    return f"{seconds / 3600.0:.2f} h"
