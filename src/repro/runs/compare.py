"""One compare engine: two documents → one ``repro-compare/v2`` report.

``repro profile --diff``, ``repro timeseries diff`` and ``repro runs
compare`` all do the same work, here: join two keyed row tables, give
each row one status, count the statuses, pick one verdict, and render
the result as JSON or text. Each document kind supplies only its rule
table (:data:`KINDS`):

* ``profile`` — ``repro-profile/v1`` frames keyed by call path. A frame
  regressed (improved) when its inclusive time grew (shrank) past the
  ``threshold`` ratio and both sides clear the ``min_s`` floor:
  microsecond frames are timer noise.
* ``timeseries`` — ``repro-timeseries/v1`` series keyed by name. A series
  changed when its mean or peak moved by more than the relative
  ``threshold``; each row says which of the two moved (``moved``) and
  whether the series was only resampled (``resampled``). Means are taken
  over the stored run-length-compressed points, which biases them toward
  step edges, the transitions a drift check cares about.
* ``runs`` — two stored bundles: run-summary keys, the SLO verdict flip,
  fault-ledger and event-count deltas and the deterministic artifact
  digests. Summary metrics move past the relative ``threshold`` to
  count; any new restart, fault or SLO violation regresses. The runs'
  timeseries and profile comparisons only attribute the result
  (``attribution``); the profile is host-timed, so it never decides.

Every row has one status: ``identical``, ``noise`` (moved, within the
threshold), ``improved``, ``regressed``, ``changed`` (moved, no better
direction), ``added`` or ``removed``. Every report has one verdict:
``regressed`` if any row regressed, else ``improved`` if any improved,
else ``identical`` if every row is, else ``indeterminate``. Rows are
sorted by key, so a report is a pure function of its two inputs, and a
document compared with itself is ``identical`` row by row.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from repro.common.errors import ValidationError
from repro.common.jsontext import indented_json
from repro.common.meta import coerce_meta
from repro.common.validation import is_finite, is_number, require_object
from repro.profiling.capture import validate_capture as _validate_profile
from repro.timeseries.capture import validate_capture as _validate_timeseries

COMPARE_SCHEMA = "repro-compare/v2"

STATUSES = (
    "identical", "noise", "improved", "regressed", "changed", "added", "removed",
)

_ABSENT = object()

_MARK = {
    "regressed": "!", "improved": "+", "changed": "~", "added": ">",
    "removed": "<",
}


def _pair(base, target) -> dict:
    """The base/target/delta/ratio cells of one measure (delta and ratio
    only for numbers, ratio only over a non-zero base)."""
    both = is_number(base) and is_number(target)
    return {
        "base": base,
        "target": target,
        "delta": round(target - base, 9) if both else None,
        "ratio": round(target / base, 6) if both and base else None,
    }


def _rel_delta(a: float, b: float) -> float:
    """``|a - b|`` relative to the larger magnitude: symmetric in a, b."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


# ----------------------------------------------------------------- profile
def _profile_row(key: str, b: dict | None, t: dict | None, p: dict) -> dict:
    bt = None if b is None else b["total_s"]
    tt = None if t is None else t["total_s"]
    b_counters = {} if b is None else b["counters"]
    t_counters = {} if t is None else t["counters"]
    row = {
        **_pair(bt, tt),
        "calls": _pair(None if b is None else b["n_calls"],
                       None if t is None else t["n_calls"]),
        "counters": {
            name: _pair(b_counters.get(name, 0.0), t_counters.get(name, 0.0))
            for name in sorted(set(b_counters) | set(t_counters))
        },
    }
    if b is not None and t is not None:
        timed = min(bt, tt) >= p["min_s"]
        if timed and tt > bt * p["threshold"]:
            row["status"] = "regressed"
        elif timed and bt > tt * p["threshold"]:
            row["status"] = "improved"
        elif (bt, b["n_calls"], b_counters) == (tt, t["n_calls"], t_counters):
            row["status"] = "identical"
        else:
            row["status"] = "noise"
    return row


# -------------------------------------------------------------- timeseries
def _series_stats(entry: dict | None) -> dict:
    if entry is None:
        return dict.fromkeys(("mean", "peak", "n_samples", "n_points"))
    values = entry["values"]
    return {
        "mean": round(sum(values) / len(values), 9) if values else 0.0,
        "peak": entry["high_water"],
        "n_samples": entry["n_samples"],
        "n_points": len(values),
    }


def _series_row(key: str, b: dict | None, t: dict | None, p: dict) -> dict:
    bs, ts = _series_stats(b), _series_stats(t)
    row = {
        **_pair(bs["mean"], ts["mean"]),
        "peak": _pair(bs["peak"], ts["peak"]),
        "samples": _pair(bs["n_samples"], ts["n_samples"]),
        "points": _pair(bs["n_points"], ts["n_points"]),
        "moved": [],
        "resampled": False,
    }
    if b is None or t is None:
        return row
    if (b["t0_s"], b["dt_s"], b["values"]) == (t["t0_s"], t["dt_s"], t["values"]):
        row["status"] = "identical"
        return row
    row["moved"] = [
        stat for stat in ("mean", "peak")
        if _rel_delta(bs[stat], ts[stat]) > p["threshold"]
    ]
    row["resampled"] = (bs["n_points"], bs["n_samples"]) != (
        ts["n_points"], ts["n_samples"]
    )
    row["status"] = "changed" if row["moved"] else "noise"
    return row


# -------------------------------------------------------------------- runs
#: Keys with a better direction: ``lower`` / ``count`` (any increase
#: regresses, no noise floor) / ``true`` / ``false``. Every other key is
#: neutral: ``identical`` or ``changed``.
_RUNS_RULES = {
    "summary.jct_s": "lower",
    "summary.cost_usd": "lower",
    "summary.storage_cost_usd": "lower",
    "summary.comm_overhead_s": "lower",
    "summary.scheduling_overhead_s": "lower",
    "summary.n_restarts": "count",
    "summary.converged": "true",
    "slo.violated": "false",
    "faults.n_faults": "count",
}

_FAULT_KEYS = ("n_faults", "n_recoveries", "fault_time_s", "recovery_time_s")

#: Bundle artifacts the runs rule table reads (the trace is never loaded).
_RUN_ARTIFACTS = ("slo", "faults", "events", "timeseries", "profile")


def _flatten(prefix: str, mapping: dict) -> dict:
    out: dict = {}
    for key, value in mapping.items():
        if isinstance(value, dict):
            out.update(_flatten(f"{prefix}.{key}", value))
        else:
            out[f"{prefix}.{key}"] = value
    return out


def _event_counts(text: str | None) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in (text or "").splitlines():
        if not line.strip():
            continue
        doc = require_object(json.loads(line), "event log line")
        if "schema" in doc:  # header line
            continue
        kind = f"events.{doc.get('kind', '')}"
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def _runs_table(doc: dict) -> dict:
    manifest, texts = doc["manifest"], doc["artifacts"]
    table = _flatten(
        "summary", require_object(manifest.get("summary") or {}, "manifest summary")
    )
    for entry in manifest["artifacts"]:
        if entry["deterministic"]:
            table[f"artifact.{entry['kind']}"] = entry["sha256"]
    if texts.get("slo") is not None:
        report = require_object(json.loads(texts["slo"]), "SLO report")
        verdict = require_object(report.get("verdict") or {}, "SLO report verdict")
        violations = verdict.get("violations", [])
        if not (isinstance(violations, list)
                and all(isinstance(v, str) for v in violations)):
            raise ValidationError(
                f"SLO report violations must be a list of names, got {violations!r:.40}"
            )
        table["slo.violated"] = bool(verdict.get("violated"))
        table["slo.violations"] = sorted(violations)
    if texts.get("faults") is not None:
        report = require_object(json.loads(texts["faults"]), "fault report")
        summary = require_object(report.get("summary") or {}, "fault report summary")
        for key in _FAULT_KEYS:
            table[f"faults.{key}"] = summary.get(key, 0) or 0
        by_kind = require_object(
            summary.get("by_kind") or {}, "fault report summary by_kind"
        )
        table.update(_flatten("faults.by_kind", by_kind))
    table.update(_event_counts(texts.get("events")))
    return table


def _runs_absent(key: str):
    """A run without an SLO report met no SLO to violate; one without a
    fault ledger or event log had zero faults and zero events."""
    if key == "slo.violated":
        return False
    if key == "slo.violations":
        return []
    if key.startswith(("faults.", "events.")):
        return 0
    return _ABSENT


def _runs_row(key: str, b, t, p: dict) -> dict:
    row = _pair(b, t)
    rule = _RUNS_RULES.get(key)
    if b == t or (b != b and t != t):  # NaN equals NaN here
        row["status"] = "identical"
    elif rule in ("true", "false") and isinstance(b, bool) and isinstance(t, bool):
        row["status"] = "improved" if t is (rule == "true") else "regressed"
    elif rule in ("lower", "count") and is_finite(b) and is_finite(t):
        if rule == "lower" and _rel_delta(b, t) <= p["threshold"]:
            row["status"] = "noise"
        else:
            row["status"] = "regressed" if t > b else "improved"
    else:
        row["status"] = "changed"
    return row


def _runs_endpoint(doc: dict) -> dict:
    meta = doc["manifest"].get("meta", {})
    return {"run_id": doc["manifest"]["run_id"],
            **{key: meta.get(key, "") for key in ("command", "workload", "method")},
            "seed": meta.get("seed", 0)}


def _runs_attribution(base: dict, target: dict) -> dict:
    """Where did the verdict come from: the timeseries and profile
    comparisons of the two runs, or ``None`` where a run lacks one."""
    out = {}
    for kind in ("timeseries", "profile"):
        b, t = base["artifacts"].get(kind), target["artifacts"].get(kind)
        if b is None or t is None:
            out[kind] = None
            continue
        report = compare(kind, json.loads(b), json.loads(t))
        exit_on = KINDS[kind].exit_on
        out[kind] = {
            "verdict": report["verdict"],
            "counts": report["counts"],
            "flagged": [r["key"] for r in report["rows"] if r["status"] in exit_on],
        }
    return out


# ----------------------------------------------------------------- engine
class Kind(NamedTuple):
    """One document kind's rule table."""

    table: Callable[[dict], dict]
    row: Callable[..., dict]
    endpoint: Callable[[dict], dict]
    params: dict
    #: Row statuses that make the command exit 1.
    exit_on: frozenset
    validate: Callable[[dict], None] | None = None
    absent: Callable[[str], object] = lambda key: _ABSENT
    attribute: Callable[[dict, dict], dict] | None = None


KINDS: dict[str, Kind] = {
    "profile": Kind(
        table=lambda doc: {f["path"]: f for f in doc["frames"]},
        row=_profile_row,
        endpoint=lambda doc: {"meta": doc["meta"], "wall_s": doc["totals"]["wall_s"]},
        params={"threshold": 1.2, "min_s": 0.001},
        exit_on=frozenset({"regressed"}),
        validate=_validate_profile,
    ),
    "timeseries": Kind(
        table=lambda doc: {s["name"]: s for s in doc["series"]},
        row=_series_row,
        endpoint=lambda doc: {"meta": doc["meta"]},
        params={"threshold": 0.05},
        exit_on=frozenset({"changed", "added", "removed"}),
        validate=_validate_timeseries,
    ),
    "runs": Kind(
        table=_runs_table,
        row=_runs_row,
        endpoint=_runs_endpoint,
        params={"threshold": 0.01},
        exit_on=frozenset({"regressed"}),
        absent=_runs_absent,
        attribute=_runs_attribution,
    ),
}


def compare(kind: str, base: dict, target: dict, meta=None, **params) -> dict:
    """The ``repro-compare/v2`` report for ``base`` → ``target``.

    ``base`` and ``target`` are two loaded documents of ``kind``: profile
    or timeseries captures, or for ``runs`` what :func:`load_run` returns.
    ``params`` override the kind's thresholds.
    """
    spec = KINDS[kind]
    if set(params) - set(spec.params):
        raise TypeError(f"{kind} compare takes {sorted(spec.params)}, got {sorted(params)}")
    params = {**spec.params, **params}
    if spec.validate is not None:
        spec.validate(base)
        spec.validate(target)
    b_table, t_table = spec.table(base), spec.table(target)
    rows = []
    counts = dict.fromkeys(STATUSES, 0)
    for key in sorted(set(b_table) | set(t_table)):
        b = b_table[key] if key in b_table else spec.absent(key)
        t = t_table[key] if key in t_table else spec.absent(key)
        row = spec.row(
            key, None if b is _ABSENT else b, None if t is _ABSENT else t, params
        )
        if b is _ABSENT:
            row["status"] = "added"
        elif t is _ABSENT:
            row["status"] = "removed"
        row["key"] = key
        counts[row["status"]] += 1
        rows.append(row)
    return {
        "schema": COMPARE_SCHEMA,
        "kind": kind,
        "meta": coerce_meta(meta),
        "base": spec.endpoint(base),
        "target": spec.endpoint(target),
        "params": params,
        "rows": rows,
        "counts": counts,
        "verdict": _verdict(counts, len(rows)),
        "attribution": (
            None if spec.attribute is None else spec.attribute(base, target)
        ),
    }


def _verdict(counts: dict, n_rows: int) -> str:
    if counts["regressed"]:
        return "regressed"
    if counts["improved"]:
        return "improved"
    if counts["identical"] == n_rows:
        return "identical"
    return "indeterminate"


def exit_code(report: dict) -> int:
    """1 when any row's status is in the kind's ``exit_on`` set, else 0:
    a regressed frame or run, or a series that changed, came or went."""
    exit_on = KINDS[report["kind"]].exit_on
    return 1 if any(report["counts"][status] for status in sorted(exit_on)) else 0


def load_run(store, ref: str) -> dict:
    """The ``runs`` document of one stored bundle: its manifest plus the
    texts of the artifacts the rule table reads."""
    manifest = store.load(ref)
    kinds = {entry["kind"] for entry in manifest["artifacts"]}
    return {
        "manifest": manifest,
        "artifacts": {
            kind: store.read_artifact(manifest, kind)
            for kind in _RUN_ARTIFACTS if kind in kinds
        },
    }


def compare_runs(store, base_ref: str, target_ref: str, meta=None, **params) -> dict:
    """The ``runs`` report for two stored runs (ids or unique prefixes)."""
    return compare(
        "runs", load_run(store, base_ref), load_run(store, target_ref),
        meta=meta, **params,
    )


def compare_to_json(report: dict) -> str:
    """Byte-stable serialization (sorted keys, trailing newline)."""
    return indented_json(report) + "\n"


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    text = str(value)
    return text if len(text) <= 12 else text[:9] + "..."


def _note(row: dict) -> str:
    bits = []
    if row.get("ratio") is not None and row["status"] != "identical":
        bits.append(f"{row['ratio']:.2f}x")
    if "peak" in row and row["status"] in ("changed", "noise"):
        bits.append(f"peak {_cell(row['peak']['base'])} -> "
                    f"{_cell(row['peak']['target'])}")
    if row.get("moved"):
        bits.append(f"moved {', '.join(row['moved'])}")
    if row.get("resampled"):
        bits.append("resampled")
    return "  " + "; ".join(bits) if bits else ""


def render_compare(report: dict) -> str:
    """Human-readable view: endpoints, one line per row, counts, verdict."""
    params = ", ".join(f"{k}={v:g}" for k, v in sorted(report["params"].items()))
    lines = [f"{report['kind']} compare ({params})"]
    for side in ("base", "target"):
        endpoint, label = report[side], report["meta"].get(side)
        bits = [] if label is None or label in endpoint.values() else [str(label)]
        bits += [
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(endpoint.items()) if k != "meta"
        ]
        lines.append(f"  {side:<6} : {' '.join(bits) or '-'}")
    lines.append(
        f"  {'key':44s} {'base':>12s} {'target':>12s} {'delta':>12s}  status"
    )
    for row in report["rows"]:
        lines.append(
            f"{_MARK.get(row['status'], ' ')} {row['key']:44s} "
            f"{_cell(row['base']):>12s} {_cell(row['target']):>12s} "
            f"{_cell(row['delta']):>12s}  {row['status']}{_note(row)}"
        )
    counts = report["counts"]
    lines.append(
        "rows: " + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
    )
    for name, digest in sorted((report["attribution"] or {}).items()):
        if digest is not None:
            flagged = ", ".join(digest["flagged"]) or "none"
            lines.append(
                f"attribution {name}: {digest['verdict']}; flagged: {flagged}"
            )
    lines.append(f"verdict: {report['verdict'].upper()}")
    shown = KINDS[report["kind"]].exit_on | {"regressed", "improved"}
    for row in report["rows"]:
        if row["status"] in shown:
            lines.append(
                f"  {_MARK[row['status']]} {row['status']} {row['key']}: "
                f"{_cell(row['base'])} -> {_cell(row['target'])}"
            )
    return "\n".join(lines)
