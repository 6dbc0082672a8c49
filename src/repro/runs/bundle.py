"""The ``repro-bundle/v1`` manifest: one artifact that identifies a run.

A :class:`RunBundle` ties together whichever captures a run enabled —
telemetry, Chrome trace, event log, SLO report, profile, timeseries,
fault ledger — as content-addressed (sha256) artifacts behind one
byte-stable manifest. The manifest's ``run_id`` is derived from the
provenance identity plus the digests of the *deterministic* artifacts, so
two identical runs produce the same id and byte-identical manifests,
while host-timed captures (the hot-path profile and its flamegraph,
whose frame timings are wall-clock) ride along without perturbing
identity.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.jsontext import indented_json
from repro.common.meta import coerce_meta
from repro.common.schemas import SCHEMA_KEYS
from repro.common.validation import is_number, require_object
from repro.runs.provenance import ProvenanceStamp

BUNDLE_SCHEMA = "repro-bundle/v1"

#: Canonical artifact kinds → (bundle filename, schema id or None).
#: ``None`` marks unversioned formats (Chrome trace JSON, collapsed
#: stacks); everything else is a REP006-registered document.
ARTIFACT_KINDS: dict[str, tuple[str, str | None]] = {
    "telemetry": ("telemetry.json", "repro-telemetry/v1"),
    "trace": ("trace.json", None),
    "events": ("events.jsonl", "repro-events/v1"),
    "slo": ("slo-report.json", "repro-slo-report/v1"),
    "profile": ("profile.json", "repro-profile/v1"),
    "flamegraph": ("flamegraph.txt", None),
    "timeseries": ("timeseries.json", "repro-timeseries/v1"),
    "faults": ("fault-report.json", "repro-faults-report/v1"),
}

#: Kinds whose bytes depend on the host clock: they are bundled and
#: digested, but excluded from run-id derivation so a re-run of the same
#: (workload, seed, config) keeps the same identity.
HOST_TIMED_KINDS = frozenset({"profile", "flamegraph"})

_ARTIFACT_KEYS = frozenset(
    {"kind", "filename", "sha256", "n_bytes", "artifact_schema", "deterministic"}
)

_SHA256 = re.compile(r"[0-9a-f]{64}")


def sha256_text(text: str) -> str:
    """The hex digest content address of one artifact's bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Artifact:
    """One content-addressed capture inside a bundle.

    The text is encoded once, for its digest and byte count. The bytes are
    not kept: the store encodes again only the texts it writes, so a
    bundle never holds every capture twice.
    """

    kind: str
    text: str
    sha256: str = field(init=False)
    n_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValidationError(
                f"unknown artifact kind {self.kind!r}; known: "
                f"{', '.join(sorted(ARTIFACT_KINDS))}"
            )
        data = self.text.encode("utf-8")
        object.__setattr__(self, "sha256", hashlib.sha256(data).hexdigest())
        object.__setattr__(self, "n_bytes", len(data))

    @property
    def filename(self) -> str:
        return ARTIFACT_KINDS[self.kind][0]

    @property
    def schema(self) -> str | None:
        return ARTIFACT_KINDS[self.kind][1]

    @property
    def deterministic(self) -> bool:
        return self.kind not in HOST_TIMED_KINDS

    def to_entry(self) -> dict:
        """The manifest row for this artifact."""
        return {
            "kind": self.kind,
            "filename": self.filename,
            "sha256": self.sha256,
            "n_bytes": self.n_bytes,
            "artifact_schema": self.schema,
            "deterministic": self.deterministic,
        }


def derive_run_id(stamp: ProvenanceStamp, artifacts: list[Artifact]) -> str:
    """Deterministic run id: provenance identity + deterministic digests."""
    ingredients = {
        "provenance": stamp.identity(),
        "artifacts": [
            [a.kind, a.sha256]
            for a in sorted(artifacts, key=lambda a: a.kind)
            if a.deterministic
        ],
    }
    digest = hashlib.sha256(
        json.dumps(ingredients, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return "r" + digest[:12]


class RunBundle:
    """A provenance stamp, its artifacts, and the derived manifest."""

    def __init__(
        self,
        stamp: ProvenanceStamp,
        artifacts: dict[str, str],
        summary: dict | None = None,
    ) -> None:
        self.artifacts = [
            Artifact(kind, text) for kind, text in sorted(artifacts.items())
        ]
        self.stamp = stamp.with_schemas(
            {a.kind: a.schema for a in self.artifacts if a.schema is not None}
        )
        self.summary = dict(summary or {})
        self.run_id = derive_run_id(self.stamp, self.artifacts)

    def manifest(self) -> dict:
        """The ``repro-bundle/v1`` document for this bundle."""
        return {
            "schema": BUNDLE_SCHEMA,
            "meta": coerce_meta(self.stamp),
            "run_id": self.run_id,
            "artifacts": [a.to_entry() for a in self.artifacts],
            "summary": self.summary,
        }

    def artifact(self, kind: str) -> Artifact | None:
        for a in self.artifacts:
            if a.kind == kind:
                return a
        return None


def manifest_to_json(manifest: dict) -> str:
    """Byte-stable serialization (sorted keys, trailing newline)."""
    return indented_json(manifest) + "\n"


def load_manifest(text: str) -> dict:
    """Parse and validate a ``repro-bundle/v1`` manifest document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
    validate_manifest(payload)
    return payload


def validate_manifest(payload: object) -> None:
    """Raise :class:`ValidationError` unless ``payload`` matches the schema.

    Every field a reader uses is checked, so ``runs show``, ``list``,
    ``compare``, ``export`` and ``gc`` never act on a value they did not
    write: an artifact's filename, schema and determinism must be the
    ones its kind implies, its digest a sha256 and its size a count.
    """
    if not isinstance(payload, dict):
        raise ValidationError("manifest must be a JSON object")
    schema = payload.get("schema")
    if schema != BUNDLE_SCHEMA:
        raise ValidationError(
            f"expected schema {BUNDLE_SCHEMA!r}, got {schema!r}"
        )
    keys = SCHEMA_KEYS[BUNDLE_SCHEMA]
    if set(payload) != keys:
        raise ValidationError(
            f"manifest top-level keys {sorted(payload)} do not match the "
            f"{BUNDLE_SCHEMA} contract {sorted(keys)}"
        )
    _check_meta(require_object(payload["meta"], "manifest 'meta'"))
    summary = require_object(payload["summary"], "manifest 'summary'")
    for key in ("jct_s", "cost_usd"):
        if summary.get(key) is not None and not is_number(summary[key]):
            raise ValidationError(f"manifest summary {key!r} must be a number")
    if not isinstance(payload["artifacts"], list):
        raise ValidationError("manifest 'artifacts' must be a list")
    seen = set()
    for entry in payload["artifacts"]:
        _check_entry(require_object(entry, "manifest artifact"), seen)
    run_id = payload.get("run_id", "")
    if not (isinstance(run_id, str) and run_id.startswith("r") and len(run_id) == 13):
        raise ValidationError(f"malformed run id {run_id!r:.40}")


def _check_meta(meta: dict) -> None:
    for key in ("command", "workload", "method"):
        if not isinstance(meta.get(key, ""), str):
            raise ValidationError(f"manifest meta {key!r} must be a string")
    seed = meta.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"manifest meta 'seed' must be an integer, got {seed!r:.40}")
    prov = require_object(meta.get("provenance") or {}, "manifest meta 'provenance'")
    argv = prov.get("argv", [])
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ValidationError("manifest provenance 'argv' must be a list of strings")


def _check_entry(entry: dict, seen: set) -> None:
    """Check one artifact row against what its kind implies."""
    missing = _ARTIFACT_KEYS - set(entry)
    if missing:
        raise ValidationError(
            f"manifest artifact {entry.get('kind')!r:.40} lacks keys "
            f"{sorted(missing)}"
        )
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in ARTIFACT_KINDS:
        raise ValidationError(f"manifest names unknown artifact kind {kind!r:.40}")
    if kind in seen:
        raise ValidationError(f"manifest names artifact kind {kind!r} twice")
    seen.add(kind)
    filename, schema = ARTIFACT_KINDS[kind]
    for key, want in (
        ("filename", filename),
        ("artifact_schema", schema),
        ("deterministic", kind not in HOST_TIMED_KINDS),
    ):
        if type(entry[key]) is not type(want) or entry[key] != want:
            raise ValidationError(
                f"manifest artifact {kind!r} {key} must be {want!r}, "
                f"got {entry[key]!r:.40}"
            )
    sha = entry["sha256"]
    if not (isinstance(sha, str) and _SHA256.fullmatch(sha)):
        raise ValidationError(
            f"manifest artifact {kind!r} sha256 must be 64 lowercase hex "
            f"digits, got {sha!r:.40}"
        )
    n_bytes = entry["n_bytes"]
    if not isinstance(n_bytes, int) or isinstance(n_bytes, bool) or n_bytes < 0:
        raise ValidationError(
            f"manifest artifact {kind!r} n_bytes must be a non-negative "
            f"integer, got {n_bytes!r:.40}"
        )


def render_manifest(manifest: dict) -> str:
    """Human-readable ``repro runs show`` view of one manifest."""
    meta = manifest.get("meta", {})
    prov = dict(meta.get("provenance") or {})
    lines = [
        f"run {manifest['run_id']}",
        f"  command : {meta.get('command', '-') or '-'}"
        + (f"  workload={meta['workload']}" if meta.get("workload") else "")
        + (f"  method={meta['method']}" if meta.get("method") else "")
        + f"  seed={meta.get('seed', 0)}",
        f"  version : {prov.get('package_version', '-') or '-'}"
        f"  config={prov.get('config_hash', '-') or '-'}",
    ]
    if prov.get("argv"):
        lines.append(f"  argv    : {' '.join(prov['argv'])}")
    lines.append("  artifacts:")
    for entry in manifest["artifacts"]:
        schema = entry["artifact_schema"] or "-"
        det = "" if entry["deterministic"] else "  (host-timed)"
        lines.append(
            f"    {entry['kind']:>10s}  {entry['filename']:<18s} "
            f"{entry['n_bytes']:>9d} B  sha256={entry['sha256'][:12]}  "
            f"{schema}{det}"
        )
    summary = manifest.get("summary") or {}
    if summary:
        parts = []
        for key in sorted(summary):
            value = summary[key]
            parts.append(
                f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}"
            )
        lines.append("  summary : " + "  ".join(parts))
    return "\n".join(lines)
