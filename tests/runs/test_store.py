"""RunStore: the content-addressed registry under .repro/runs."""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.common.errors import ValidationError
from repro.runs import ProvenanceStamp, RunBundle, RunStore


def _bundle(seed: int = 0, text: str = '{"traceEvents": []}\n') -> RunBundle:
    stamp = ProvenanceStamp.collect("train", workload="lr-higgs", seed=seed)
    return RunBundle(
        stamp,
        {"trace": text, "telemetry": '{"schema": "repro-telemetry/v1"}\n'},
        summary={"jct_s": 10.0 + seed},
    )


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


class TestRoundTrip:
    def test_save_load(self, store):
        bundle = _bundle()
        run_id = store.save(bundle)
        manifest = store.load(run_id)
        assert manifest["run_id"] == run_id
        assert store.read_artifact(manifest, "trace") == '{"traceEvents": []}\n'

    def test_save_is_idempotent_and_byte_stable(self, store):
        first = store.save(_bundle())
        path = store.manifest_dir / f"{first}.json"
        before = path.read_bytes()
        assert store.save(_bundle()) == first
        assert path.read_bytes() == before
        assert store.run_ids() == [first]

    def test_shared_objects_stored_once(self, store):
        store.save(_bundle(seed=0))
        store.save(_bundle(seed=1))  # same artifact bytes, different identity
        objects = [p for p in store.object_dir.rglob("*") if p.is_file()]
        assert len(store.run_ids()) == 2
        assert len(objects) == 2  # trace + telemetry, deduplicated


class TestResolve:
    def test_unique_prefix(self, store):
        run_id = store.save(_bundle())
        assert store.resolve(run_id[:5]) == run_id

    def test_missing_ref(self, store):
        store.save(_bundle())
        with pytest.raises(ValidationError, match="no run matching"):
            store.resolve("rffffffffffff")

    def test_ambiguous_prefix(self, store):
        store.save(_bundle(seed=0))
        store.save(_bundle(seed=1))
        with pytest.raises(ValidationError, match="ambiguous run prefix"):
            store.resolve("r")


class TestIntegrity:
    def test_missing_artifact_kind(self, store):
        manifest = store.load(store.save(_bundle()))
        with pytest.raises(ValidationError, match="no 'profile' artifact"):
            store.read_artifact(manifest, "profile")

    def test_corrupt_object_detected(self, store):
        manifest = store.load(store.save(_bundle()))
        entry = next(e for e in manifest["artifacts"] if e["kind"] == "trace")
        store._object_path(entry["sha256"]).write_text("tampered")
        with pytest.raises(ValidationError, match="corrupt"):
            store.read_artifact(manifest, "trace")

    def test_missing_object_detected(self, store):
        manifest = store.load(store.save(_bundle()))
        entry = next(e for e in manifest["artifacts"] if e["kind"] == "trace")
        store._object_path(entry["sha256"]).unlink()
        with pytest.raises(ValidationError, match="missing from the store"):
            store.read_artifact(manifest, "trace")

    def test_saving_again_repairs_a_truncated_object(self, store):
        text = '{"traceEvents": [' + "1, " * 400 + "2]}\n"
        manifest = store.load(store.save(_bundle(text=text)))
        entry = next(e for e in manifest["artifacts"] if e["kind"] == "trace")
        path = store._object_path(entry["sha256"])
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValidationError, match="corrupt"):
            store.read_artifact(manifest, "trace")
        store.save(_bundle(text=text))
        assert store.read_artifact(manifest, "trace") == text

    def test_save_leaves_no_temporary_files(self, store):
        store.save(_bundle())
        store.save(_bundle())
        names = [p.name for p in store.root.rglob("*") if p.is_file()]
        assert not [n for n in names if n.startswith(".") or n.endswith(".tmp")]
        assert len(names) == 3  # two objects and one manifest

    def test_a_failed_write_leaves_the_object_absent(self, store, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.runs.store.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            store.save(_bundle())
        assert not [p for p in store.root.rglob("*") if p.is_file()]

    def test_cli_save_repairs_a_truncated_trace(self, tmp_path):
        argv = ["train", "lr-higgs", "--budget", "2.0", "--seed", "0",
                "--save-run", str(tmp_path / "s")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        store = RunStore(tmp_path / "s")
        (run_id,) = store.run_ids()
        manifest = store.load(run_id)
        entry = next(e for e in manifest["artifacts"] if e["kind"] == "trace")
        path = store._object_path(entry["sha256"])
        path.write_bytes(path.read_bytes()[:1000])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert store.run_ids() == [run_id]
        assert len(store.read_artifact(manifest, "trace").encode()) == entry["n_bytes"]


class TestMaintenance:
    def test_export(self, store, tmp_path):
        run_id = store.save(_bundle())
        written = store.export(run_id, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["manifest.json", "telemetry.json", "trace.json"]
        assert (tmp_path / "out" / "trace.json").read_text() == '{"traceEvents": []}\n'

    def test_gc_reclaims_orphans(self, store):
        keep = store.save(_bundle(text='{"traceEvents": [1]}\n'))
        drop = store.save(_bundle(text='{"traceEvents": [2]}\n'))
        assert store.remove(drop) == drop
        stats = store.gc()
        assert stats["n_runs"] == 1
        assert stats["n_removed"] == 1  # the dropped run's unique trace
        assert stats["n_kept"] == 2  # kept run's trace + shared telemetry
        assert store.run_ids() == [keep]
        # The kept run is still fully readable after the sweep.
        manifest = store.load(keep)
        assert store.read_artifact(manifest, "telemetry")

    def test_gc_on_empty_store(self, store):
        assert store.gc() == {"n_removed": 0, "n_kept": 0, "n_runs": 0}


def _entry(kind: str):
    return lambda m: next(e for e in m["artifacts"] if e["kind"] == kind)


#: Manifest edits a reader must refuse: each one used to end in exit 0
#: or a traceback in at least one `repro runs` action.
TAMPERED = {
    "filename-escape": lambda m: _entry("trace")(m).update(filename="../escape.json"),
    "filename-other-kind": lambda m: _entry("trace")(m).update(filename="telemetry.json"),
    "meta-int": lambda m: m.update(meta=7),
    "meta-seed-list": lambda m: m["meta"].update(seed=[1]),
    "meta-provenance-list": lambda m: m["meta"].update(provenance=[1]),
    "summary-list": lambda m: m.update(summary=[1]),
    "summary-jct-list": lambda m: m["summary"].update(jct_s=[1]),
    "artifact-int": lambda m: m["artifacts"].append(5),
    "sha256-null": lambda m: _entry("trace")(m).update(sha256=None),
    "sha256-upper": lambda m: _entry("trace")(m).update(
        sha256=_entry("trace")(m)["sha256"].upper()),
    "sha256-path": lambda m: _entry("trace")(m).update(sha256="../" * 21 + "x"),
    "n_bytes-bool": lambda m: _entry("trace")(m).update(n_bytes=True),
    "n_bytes-negative": lambda m: _entry("trace")(m).update(n_bytes=-1),
    "n_bytes-float": lambda m: _entry("trace")(m).update(n_bytes=1.5),
    "schema-wrong": lambda m: _entry("trace")(m).update(artifact_schema="repro-events/v1"),
    "deterministic-wrong": lambda m: _entry("trace")(m).update(deterministic=False),
    "deterministic-int": lambda m: _entry("trace")(m).update(deterministic=1),
    "kind-list": lambda m: _entry("trace")(m).update(kind=["trace"]),
    "kind-twice": lambda m: m["artifacts"].append(dict(_entry("trace")(m))),
}


class TestTamperedManifest:
    """A manifest is checked field by field before any action reads it:
    every `repro runs` action exits 2 with one stderr line, export writes
    nothing, and gc deletes no object."""

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_every_action_refuses(self, case, tmp_path):
        store = RunStore(tmp_path / "runs")
        run_id = store.save(_bundle())
        path = store.manifest_dir / f"{run_id}.json"
        manifest = json.loads(path.read_text())
        TAMPERED[case](manifest)
        path.write_text(json.dumps(manifest))
        objects = sorted(store.object_dir.rglob("*"))
        dest = tmp_path / "dest"
        for argv in (["show", run_id], ["list"], ["compare", run_id, run_id],
                     ["export", run_id, str(dest)], ["gc"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["runs", *argv, "--store", str(store.root)])
            assert rc == 2, (argv, out.getvalue())
            assert err.getvalue().startswith("repro runs: manifest")
            assert err.getvalue().count("\n") == 1
        assert sorted(store.object_dir.rglob("*")) == objects
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]
