"""The provenance stamp: who/what/how of one run, in every capture's meta.

A :class:`ProvenanceStamp` identifies a run well enough to reproduce it:
the CLI command and argv, the workload/method/seed triple, the package
version, a short hash of the platform configuration, and the schema
versions of whichever captures the run enabled. It is threaded — via the
duck-typed ``to_meta()`` contract in :func:`repro.common.meta.coerce_meta`
— through every capture writer's ``meta`` block, so a telemetry JSON, an
event log, a profile and a timeseries capture written by the same run all
carry the same provenance core and can be re-associated later.

The stamp's :meth:`identity` is deliberately narrower than its
:meth:`to_meta`: output paths and store locations (argv) never influence
the run id, so saving the same run into two different stores yields the
same ``r<hash>`` identifier. Capture documents, whose bytes the run id
digests, therefore carry the stamp without argv
(:class:`repro.runs.Instruments` drops it); only the bundle manifest and
the run journal's header record the invocation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass

from repro._version import __version__


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _normalize(obj: object) -> object:
    """JSON-safe view of a config tree: enum keys and leaves become strings."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


def hash_config(config: object) -> str:
    """A short stable digest of a (possibly nested) config dataclass."""
    if is_dataclass(config) and not isinstance(config, type):
        payload = asdict(config)
    elif isinstance(config, dict):
        payload = dict(config)
    else:
        payload = {"repr": repr(config)}
    # Normalization covers enum-keyed maps (StorageKind -> bandwidth) and
    # enum leaves; the digest only needs stability, not round-tripping.
    return _sha256_text(json.dumps(_normalize(payload), sort_keys=True))[:12]


@dataclass(frozen=True)
class ProvenanceStamp:
    """Identifies one run: command, workload, seed, config and versions.

    Attributes:
        command: the CLI subcommand (or an embedding library's label).
        workload: workload name, "" when the command has none.
        method: training/tuning method, "" when not applicable.
        seed: the run's seed.
        package_version: ``repro.__version__`` at capture time.
        config_hash: short sha256 of the platform configuration.
        argv: the CLI argument vector (informational; never hashed).
        schema_versions: (capture kind, schema id) pairs for the captures
            this run enabled, sorted by kind.
    """

    command: str = ""
    workload: str = ""
    method: str = ""
    seed: int = 0
    package_version: str = __version__
    config_hash: str = ""
    argv: tuple[str, ...] = ()
    schema_versions: tuple[tuple[str, str], ...] = ()

    @classmethod
    def collect(
        cls,
        command: str,
        workload: str = "",
        method: str = "",
        seed: int = 0,
        argv: tuple[str, ...] | list[str] | None = None,
        config: object | None = None,
        schema_versions: dict[str, str] | None = None,
    ) -> "ProvenanceStamp":
        """Build a stamp from run context, hashing the platform config.

        ``config`` defaults to :data:`repro.config.DEFAULT_PLATFORM` (it is
        imported lazily so this module stays a near-leaf).
        """
        if config is None:
            from repro.config import DEFAULT_PLATFORM

            config = DEFAULT_PLATFORM
        return cls(
            command=command,
            workload=workload,
            method=method,
            seed=int(seed),
            config_hash=hash_config(config),
            argv=tuple(str(a) for a in (argv or ())),
            schema_versions=tuple(sorted((schema_versions or {}).items())),
        )

    def with_schemas(self, schema_versions: dict[str, str]) -> "ProvenanceStamp":
        """A copy of this stamp carrying the given capture schema map."""
        return ProvenanceStamp(
            command=self.command,
            workload=self.workload,
            method=self.method,
            seed=self.seed,
            package_version=self.package_version,
            config_hash=self.config_hash,
            argv=self.argv,
            schema_versions=tuple(sorted(schema_versions.items())),
        )

    def to_meta(self) -> dict:
        """The capture-writer meta block (the ``coerce_meta`` contract).

        The four legacy keys keep their historical names and positions so
        every existing consumer (diagnose, slo, tests) reads
        stamped captures exactly as it read dict-meta ones; provenance
        proper nests under one new key.
        """
        return {
            "command": self.command,
            "workload": self.workload,
            "method": self.method,
            "seed": self.seed,
            "provenance": {
                "package_version": self.package_version,
                "config_hash": self.config_hash,
                "argv": list(self.argv),
                "schema_versions": {
                    kind: schema for kind, schema in self.schema_versions
                },
            },
        }

    def identity(self) -> dict:
        """The run-id ingredients: everything except argv and schemas.

        argv carries output paths (``--telemetry out.json``) that must not
        change a run's identity; the schema map is derived from which
        artifacts exist, which the run id already hashes directly.
        """
        return {
            "command": self.command,
            "workload": self.workload,
            "method": self.method,
            "seed": self.seed,
            "package_version": self.package_version,
            "config_hash": self.config_hash,
        }
