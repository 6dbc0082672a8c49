"""Run bundles: provenance-stamped, content-addressed run artifacts.

The observability capstone over the capture layers. One run — whatever
mix of telemetry, traces, event logs, SLO reports, profiles, timeseries
and fault ledgers it enabled — becomes one :class:`RunBundle` behind a
byte-stable ``repro-bundle/v1`` manifest with a deterministic run id,
stored content-addressed in a local :class:`RunStore` (``.repro/runs/``).
:func:`compare` is the one compare engine behind ``repro profile --diff``,
``repro timeseries diff`` and ``repro runs compare``: two documents of
one kind become one ``repro-compare/v2`` report with one verdict.

* :mod:`repro.runs.provenance` — the :class:`ProvenanceStamp` threaded
  through every capture writer's ``meta`` block;
* :mod:`repro.runs.bundle` — manifests, artifacts, run-id derivation;
* :mod:`repro.runs.store` — the content-addressed local registry;
* :mod:`repro.runs.compare` — the compare engine and its per-kind rule
  tables;
* :mod:`repro.runs.instruments` — :class:`Instruments`, the one context
  that installs a run's collectors, writes its captures and bundles them.
"""

from repro.runs.bundle import (
    ARTIFACT_KINDS,
    BUNDLE_SCHEMA,
    HOST_TIMED_KINDS,
    Artifact,
    RunBundle,
    derive_run_id,
    load_manifest,
    manifest_to_json,
    render_manifest,
    validate_manifest,
)
from repro.runs.compare import (
    COMPARE_SCHEMA,
    compare,
    compare_runs,
    compare_to_json,
    exit_code,
    load_run,
    render_compare,
)
from repro.runs.instruments import BUNDLE_KINDS, Instruments
from repro.runs.provenance import ProvenanceStamp, hash_config
from repro.runs.store import DEFAULT_STORE_ROOT, RunStore, save_run

__all__ = [
    "ARTIFACT_KINDS",
    "Artifact",
    "BUNDLE_KINDS",
    "BUNDLE_SCHEMA",
    "COMPARE_SCHEMA",
    "DEFAULT_STORE_ROOT",
    "HOST_TIMED_KINDS",
    "Instruments",
    "ProvenanceStamp",
    "RunBundle",
    "RunStore",
    "compare",
    "compare_runs",
    "compare_to_json",
    "derive_run_id",
    "exit_code",
    "hash_config",
    "load_manifest",
    "load_run",
    "manifest_to_json",
    "render_compare",
    "render_manifest",
    "save_run",
    "validate_manifest",
]
