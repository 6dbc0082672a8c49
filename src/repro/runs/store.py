"""The local run registry: content-addressed bundles under ``.repro/runs``.

Layout::

    .repro/runs/
        manifests/<run_id>.json     # repro-bundle/v1, byte-stable
        objects/<aa>/<sha256>       # artifact bytes, content-addressed

Saving the same run twice is a no-op at the byte level: artifact objects
are keyed by their sha256, the manifest by the deterministic run id, and
both serializations are byte-stable — so the registry itself never
injects nondeterminism (no timestamps, no counters; ordering is the
lexicographic run-id order).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.common.errors import ValidationError
from repro.runs.bundle import (
    ARTIFACT_KINDS,
    RunBundle,
    load_manifest,
    manifest_to_json,
    sha256_text,
)
from repro.runs.provenance import ProvenanceStamp

DEFAULT_STORE_ROOT = ".repro/runs"


class RunStore:
    """A directory of content-addressed run bundles.

    A root that exists but is not a directory, or that lies under a file,
    raises :class:`ValidationError` here, before anything is run or read.
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        for path in (self.root, *self.root.parents):
            if path.exists():
                if not path.is_dir():
                    where = "is" if path == self.root else f"lies under {path}, which is"
                    raise ValidationError(f"run store {self.root} {where} not a directory")
                break

    @property
    def manifest_dir(self) -> Path:
        return self.root / "manifests"

    @property
    def object_dir(self) -> Path:
        return self.root / "objects"

    def _object_path(self, sha256: str) -> Path:
        return self.object_dir / sha256[:2] / sha256

    # -- writing -----------------------------------------------------------

    def save(self, bundle: RunBundle) -> str:
        """Persist a bundle; returns its run id. Idempotent.

        Every file is written to a temporary name beside it and renamed
        into place, so a crash never leaves a partial object; an existing
        object whose size is not the artifact's byte count (truncated by
        some earlier failure) is rewritten.
        """
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        for artifact in bundle.artifacts:
            path = self._object_path(artifact.sha256)
            if not (path.is_file() and path.stat().st_size == artifact.n_bytes):
                path.parent.mkdir(parents=True, exist_ok=True)
                _write_atomic(path, artifact.text.encode("utf-8"))
        manifest = manifest_to_json(bundle.manifest()).encode("utf-8")
        _write_atomic(self.manifest_dir / f"{bundle.run_id}.json", manifest)
        return bundle.run_id

    # -- reading -----------------------------------------------------------

    def run_ids(self) -> list[str]:
        """All stored run ids, lexicographically sorted."""
        if not self.manifest_dir.is_dir():
            return []
        return sorted(
            p.stem for p in self.manifest_dir.glob("r*.json") if p.is_file()
        )

    def resolve(self, ref: str) -> str:
        """Resolve a full run id or unique prefix to a stored run id."""
        ids = self.run_ids()
        if ref in ids:
            return ref
        matches = [run_id for run_id in ids if run_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ValidationError(
                f"no run matching {ref!r} in {self.root} "
                f"({len(ids)} runs stored)"
            )
        raise ValidationError(
            f"ambiguous run prefix {ref!r}: matches {', '.join(matches)}"
        )

    def load(self, ref: str) -> dict:
        """Load and validate the manifest for a run id (or unique prefix)."""
        run_id = self.resolve(ref)
        text = (self.manifest_dir / f"{run_id}.json").read_text(encoding="utf-8")
        return load_manifest(text)

    def list(self) -> list[dict]:
        """All manifests, sorted by run id."""
        return [self.load(run_id) for run_id in self.run_ids()]

    def read_artifact(self, manifest: dict, kind: str) -> str:
        """The text of one artifact referenced by a loaded manifest."""
        for entry in manifest["artifacts"]:
            if entry["kind"] == kind:
                path = self._object_path(entry["sha256"])
                if not path.is_file():
                    raise ValidationError(
                        f"run {manifest['run_id']} artifact {kind!r} object "
                        f"{entry['sha256'][:12]} is missing from the store"
                    )
                text = path.read_text(encoding="utf-8")
                if sha256_text(text) != entry["sha256"]:
                    raise ValidationError(
                        f"run {manifest['run_id']} artifact {kind!r} is "
                        f"corrupt: stored bytes do not match sha256 "
                        f"{entry['sha256'][:12]}"
                    )
                return text
        raise ValidationError(
            f"run {manifest['run_id']} has no {kind!r} artifact; present: "
            f"{', '.join(e['kind'] for e in manifest['artifacts']) or 'none'}"
        )

    # -- maintenance -------------------------------------------------------

    def export(self, ref: str, dest: str | Path) -> list[Path]:
        """Materialize a run's manifest and artifacts into ``dest``."""
        manifest = self.load(ref)
        dest_dir = Path(dest)
        dest_dir.mkdir(parents=True, exist_ok=True)
        written = []
        manifest_path = dest_dir / "manifest.json"
        manifest_path.write_text(manifest_to_json(manifest), encoding="utf-8")
        written.append(manifest_path)
        for entry in manifest["artifacts"]:
            text = self.read_artifact(manifest, entry["kind"])
            path = dest_dir / ARTIFACT_KINDS[entry["kind"]][0]
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written

    def remove(self, ref: str) -> str:
        """Delete one run's manifest (objects are reclaimed by :meth:`gc`)."""
        run_id = self.resolve(ref)
        (self.manifest_dir / f"{run_id}.json").unlink()
        return run_id

    def gc(self) -> dict:
        """Delete objects no manifest references; returns removal counts."""
        live = set()
        for run_id in self.run_ids():
            manifest = self.load(run_id)
            live.update(entry["sha256"] for entry in manifest["artifacts"])
        n_removed = 0
        n_kept = 0
        if self.object_dir.is_dir():
            for shard in sorted(self.object_dir.iterdir()):
                if not shard.is_dir():
                    continue
                for obj in sorted(shard.iterdir()):
                    if obj.name in live:
                        n_kept += 1
                    else:
                        obj.unlink()
                        n_removed += 1
                if not any(shard.iterdir()):
                    shard.rmdir()
        return {"n_removed": n_removed, "n_kept": n_kept, "n_runs": len(self.run_ids())}


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it
    over ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_run(
    store: RunStore,
    stamp: ProvenanceStamp,
    artifacts: dict[str, str],
    summary: dict | None = None,
) -> RunBundle:
    """Bundle rendered capture texts (by artifact kind) under ``stamp`` and
    persist them in ``store``; returns the bundle."""
    bundle = RunBundle(stamp, artifacts, summary=summary)
    store.save(bundle)
    return bundle
