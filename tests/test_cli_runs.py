"""CLI surface of the run registry: --save-run, repro runs, exit codes."""

import json

import pytest

from repro.cli import build_parser, main
from repro.faults import FaultPlan
from repro.profiling.flamegraph import PROFILER_PID
from repro.runs import RunStore


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """One store holding a clean run and a storage-throttled run."""
    root = tmp_path_factory.mktemp("registry")
    store = root / "runs"
    plan = root / "throttle.json"
    plan.write_text(
        json.dumps(
            {
                "schema": "repro-faults/v1",
                "name": "storage-throttle",
                "storage": {
                    "*": {
                        "throttle_windows": [
                            {"start_s": 0.0, "duration_s": 1e6, "slowdown": 4.0}
                        ]
                    }
                },
            }
        )
    )
    FaultPlan.load(plan)  # the fixture plan itself must be valid
    base = ["train", "lr-higgs", "--budget", "2.0", "--save-run", str(store)]
    assert main(base) == 0
    assert main(base + ["--faults", str(plan)]) == 0
    ids = RunStore(store).run_ids()
    assert len(ids) == 2
    manifests = {run_id: RunStore(store).load(run_id) for run_id in ids}
    clean = next(
        r for r, m in manifests.items() if "faults" not in
        {e["kind"] for e in m["artifacts"]}
    )
    throttled = next(r for r in ids if r != clean)
    return {"store": store, "clean": clean, "throttled": throttled}


class TestParser:
    def test_save_run_flag_defaults(self):
        args = build_parser().parse_args(["train", "lr-higgs", "--save-run"])
        assert args.save_run == ".repro/runs"
        args = build_parser().parse_args(
            ["train", "lr-higgs", "--save-run", "/tmp/x"]
        )
        assert args.save_run == "/tmp/x"
        assert build_parser().parse_args(["train", "lr-higgs"]).save_run is None

    def test_runs_actions(self):
        args = build_parser().parse_args(["runs", "compare", "ra", "rb"])
        assert args.action == "compare"
        assert args.refs == ["ra", "rb"]
        assert args.threshold == 0.01
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "frobnicate"])


class TestSaveRun:
    def test_save_is_byte_stable_across_reruns(self, populated, capsys):
        store = RunStore(populated["store"])
        path = store.manifest_dir / f"{populated['clean']}.json"
        before = path.read_bytes()
        assert main(
            ["train", "lr-higgs", "--budget", "2.0",
             "--save-run", str(populated["store"])]
        ) == 0
        assert f"run    : {populated['clean']}" in capsys.readouterr().out
        assert path.read_bytes() == before
        assert len(store.run_ids()) == 2  # no new run materialized

    def test_bundle_carries_default_artifacts(self, populated):
        store = RunStore(populated["store"])
        manifest = store.load(populated["clean"])
        kinds = {e["kind"] for e in manifest["artifacts"]}
        assert kinds == {"telemetry", "trace", "events", "timeseries"}
        assert all(e["deterministic"] for e in manifest["artifacts"])
        assert manifest["summary"]["jct_s"] > 0

    def test_meta_stamp_consistent_across_artifacts(self, populated):
        """Every capture in one bundle carries the same provenance core."""
        store = RunStore(populated["store"])
        manifest = store.load(populated["throttled"])
        metas = [manifest["meta"]]
        for kind in ("telemetry", "timeseries", "faults"):
            doc = json.loads(store.read_artifact(manifest, kind))
            metas.append(doc["meta"])
        header = json.loads(
            store.read_artifact(manifest, "events").splitlines()[0]
        )
        metas.append(header["meta"])
        cores = {
            (
                m["command"], m["workload"], m["method"], m["seed"],
                m["provenance"]["package_version"],
                m["provenance"]["config_hash"],
            )
            for m in metas
        }
        assert len(cores) == 1

    def test_works_alongside_explicit_capture_paths(self, tmp_path, capsys):
        tel = tmp_path / "tel.json"
        assert main(
            ["train", "lr-higgs", "--telemetry", str(tel),
             "--save-run", str(tmp_path / "runs")]
        ) == 0
        capsys.readouterr()
        store = RunStore(tmp_path / "runs")
        (run_id,) = store.run_ids()
        manifest = store.load(run_id)
        # The file on disk and the bundled artifact are the same bytes.
        assert store.read_artifact(manifest, "telemetry") == tel.read_text()

    def test_argv_never_changes_the_run_id(self, tmp_path, capsys):
        """Store locations and extra capture paths are argv: one run id."""
        base = ["train", "lr-higgs", "--budget", "2.0", "--seed", "0"]
        a, b = tmp_path / "a", tmp_path / "b"
        for extra in (
            ["--save-run", str(a)],
            ["--save-run", str(b)],
            ["--save-run", str(a), "--telemetry", str(tmp_path / "t.json")],
            ["--save-run", str(a), "--profile", str(tmp_path / "p.json")],
        ):
            assert main(base + extra) == 0
        capsys.readouterr()
        assert RunStore(a).run_ids() == RunStore(b).run_ids()
        assert len(RunStore(a).run_ids()) == 1

    def test_trace_file_gets_profiler_frames_and_the_bundle_does_not(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(
            ["train", "lr-higgs", "--budget", "2.0", "--trace", str(trace),
             "--profile", str(tmp_path / "p.json"),
             "--save-run", str(tmp_path / "runs")]
        ) == 0
        capsys.readouterr()
        store = RunStore(tmp_path / "runs")
        (run_id,) = store.run_ids()
        bundled = json.loads(store.read_artifact(store.load(run_id), "trace"))
        on_disk = json.loads(trace.read_text())
        frames = [e for e in on_disk["traceEvents"] if e.get("pid") == PROFILER_PID]
        assert frames
        assert all(e.get("pid") != PROFILER_PID for e in bundled["traceEvents"])
        rest = [e for e in on_disk["traceEvents"] if e.get("pid") != PROFILER_PID]
        assert rest == bundled["traceEvents"]


class TestRunsCommand:
    def test_list_table_and_ids(self, populated, capsys):
        argv = ["runs", "list", "--store", str(populated["store"])]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert populated["clean"] in table
        assert "lr-higgs" in table
        assert main(argv + ["--format", "ids"]) == 0
        ids = capsys.readouterr().out.split()
        assert sorted(ids) == sorted([populated["clean"], populated["throttled"]])

    def test_show_resolves_prefix(self, populated, capsys):
        assert main(
            ["runs", "show", populated["clean"][:6],
             "--store", str(populated["store"])]
        ) == 0
        assert f"run {populated['clean']}" in capsys.readouterr().out

    def test_show_json_is_the_manifest(self, populated, capsys):
        assert main(
            ["runs", "show", populated["clean"], "--format", "json",
             "--store", str(populated["store"])]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-bundle/v1"
        assert payload["run_id"] == populated["clean"]

    def test_self_compare_identical_exit_0(self, populated, capsys):
        assert main(
            ["runs", "compare", populated["clean"], populated["clean"],
             "--store", str(populated["store"])]
        ) == 0
        assert "verdict: IDENTICAL" in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["before", "after-action", "between", "after"])
    def test_options_anywhere(self, populated, where, capsys):
        run = populated["clean"]
        opts = ["--format", "json", "--store", str(populated["store"])]
        argv = {
            "before": ["runs", *opts, "compare", run, run],
            "after-action": ["runs", "compare", *opts, run, run],
            "between": ["runs", "compare", run, *opts, run],
            "after": ["runs", "compare", run, run, *opts],
        }[where]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "identical"

    def test_throttled_run_regresses_exit_1(self, populated, capsys, tmp_path):
        out = tmp_path / "compare.json"
        assert main(
            ["runs", "compare", populated["clean"], populated["throttled"],
             "--store", str(populated["store"]), "--out", str(out)]
        ) == 1
        text = capsys.readouterr().out
        assert "verdict: REGRESSED" in text
        report = json.loads(out.read_text())
        rows = {r["key"]: r for r in report["rows"]}
        # Throttle windows are attributed by the ledger, kind by kind.
        assert rows["faults.n_faults"]["status"] == "regressed"
        assert rows["faults.by_kind.storage-throttle"]["delta"] > 0

    def test_export_and_gc(self, populated, tmp_path, capsys):
        dest = tmp_path / "exported"
        assert main(
            ["runs", "export", populated["clean"], str(dest),
             "--store", str(populated["store"])]
        ) == 0
        assert (dest / "manifest.json").is_file()
        assert (dest / "telemetry.json").is_file()
        capsys.readouterr()
        assert main(["runs", "gc", "--store", str(populated["store"])]) == 0
        assert "0 object(s) removed" in capsys.readouterr().out

    def test_bad_ref_exits_2(self, populated, capsys):
        assert main(
            ["runs", "show", "rdoesnotexist",
             "--store", str(populated["store"])]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro runs: ")
        assert err.count("\n") == 1  # exactly one line

    def test_wrong_arity_exits_2(self, populated, capsys):
        assert main(
            ["runs", "compare", populated["clean"],
             "--store", str(populated["store"])]
        ) == 2
        assert "BASE and TARGET" in capsys.readouterr().err


class TestUnifiedBadCaptureErrors:
    """Satellite: every capture-reading command fails the same way —
    one line on stderr, exit 2."""

    def _check(self, capsys, argv, command):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: ")
        assert err.count("\n") == 1

    def test_profile_diff(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        self._check(
            capsys, ["profile", "--diff", str(bad), str(bad)], "profile"
        )

    def test_timeseries_validate_and_diff(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        self._check(capsys, ["timeseries", "validate", str(bad)], "timeseries")
        self._check(
            capsys, ["timeseries", "diff", str(bad), str(bad)], "timeseries"
        )

    def test_dash_replay(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        self._check(capsys, ["dash", "--replay", str(missing)], "dash")

    def test_diagnose(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        self._check(capsys, ["diagnose", str(bad)], "diagnose")


def test_identical_tune_reruns_share_one_run_id(tmp_path):
    """The tune telemetry holds no host time, so a rerun dedups."""
    argv = ["tune", "lr-higgs", "--trials", "16", "--seed", "0",
            "--save-run", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv) == 0
    assert len(RunStore(tmp_path).run_ids()) == 1
