"""compare_runs: the runs kind of the compare engine over two stored
bundles."""

import json

import pytest

from repro.runs import (
    ProvenanceStamp,
    RunBundle,
    RunStore,
    compare_runs,
    compare_to_json,
    exit_code,
    render_compare,
)


def _stamp(seed: int = 0) -> ProvenanceStamp:
    return ProvenanceStamp.collect("train", workload="lr-higgs", seed=seed)


def _faults_text(n_faults: int, kind: str = "storage-throttle") -> str:
    return json.dumps(
        {
            "schema": "repro-faults-report/v1",
            "summary": {
                "n_faults": n_faults,
                "n_recoveries": n_faults,
                "fault_time_s": 2.5 * n_faults,
                "recovery_time_s": 0.5 * n_faults,
                "by_kind": {kind: n_faults} if n_faults else {},
            },
        }
    )


def _events_text(n_alerts: int) -> str:
    lines = ['{"schema": "repro-events/v1"}']
    lines += ['{"kind": "alert", "t_s": %d}' % i for i in range(n_alerts)]
    return "\n".join(lines) + "\n"


def _save(store, seed=0, jct=10.0, cost=0.5, restarts=0, converged=True,
          faults=None, events=None) -> str:
    summary = {
        "jct_s": jct,
        "cost_usd": cost,
        "n_restarts": restarts,
        "converged": converged,
    }
    artifacts = {"trace": json.dumps({"traceEvents": [], "jct": jct})}
    if faults is not None:
        artifacts["faults"] = faults
    if events is not None:
        artifacts["events"] = events
    return store.save(RunBundle(_stamp(seed), artifacts, summary=summary))


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def _row(report: dict, key: str) -> dict:
    return next(row for row in report["rows"] if row["key"] == key)


class TestVerdict:
    def test_self_compare_is_identical(self, store):
        run = _save(store)
        report = compare_runs(store, run, run)
        assert report["verdict"] == "identical"
        assert exit_code(report) == 0
        assert all(row["status"] == "identical" for row in report["rows"])

    def test_jct_increase_regresses(self, store):
        base = _save(store, seed=0, jct=10.0)
        worse = _save(store, seed=1, jct=12.0)
        report = compare_runs(store, base, worse)
        assert exit_code(report) == 1
        assert report["verdict"] == "regressed"
        assert _row(report, "summary.jct_s")["status"] == "regressed"

    def test_small_delta_is_noise_not_regression(self, store):
        base = _save(store, seed=0, jct=10.0)
        near = _save(store, seed=1, jct=10.05)  # +0.5% < 1% threshold
        report = compare_runs(store, base, near)
        assert exit_code(report) == 0
        assert _row(report, "summary.jct_s")["status"] == "noise"
        assert report["verdict"] == "indeterminate"

    def test_threshold_is_tunable(self, store):
        base = _save(store, seed=0, jct=10.0)
        near = _save(store, seed=1, jct=10.05)
        assert exit_code(compare_runs(store, base, near, threshold=0.001)) == 1

    def test_jct_decrease_improves(self, store):
        base = _save(store, seed=0, jct=10.0)
        better = _save(store, seed=1, jct=8.0)
        report = compare_runs(store, base, better)
        assert report["verdict"] == "improved"
        assert exit_code(report) == 0

    def test_any_restart_increase_regresses(self, store):
        base = _save(store, seed=0, restarts=0)
        worse = _save(store, seed=1, restarts=1)
        report = compare_runs(store, base, worse)
        assert exit_code(report) == 1
        assert _row(report, "summary.n_restarts")["status"] == "regressed"

    def test_convergence_flip_regresses(self, store):
        base = _save(store, seed=0, converged=True)
        worse = _save(store, seed=1, converged=False)
        report = compare_runs(store, base, worse)
        assert _row(report, "summary.converged")["status"] == "regressed"
        assert exit_code(report) == 1


class TestFaultAttribution:
    def test_new_faults_regress_and_name_the_kind(self, store):
        clean = _save(store, seed=0, faults=_faults_text(0))
        faulty = _save(store, seed=1, faults=_faults_text(3))
        report = compare_runs(store, clean, faulty)
        assert exit_code(report) == 1
        assert _row(report, "faults.n_faults")["status"] == "regressed"
        assert _row(report, "faults.n_faults")["delta"] == 3
        # A kind missing from one ledger counts zero there.
        kind = _row(report, "faults.by_kind.storage-throttle")
        assert (kind["status"], kind["delta"]) == ("changed", 3)

    def test_event_counts_delta(self, store):
        quiet = _save(store, seed=0, events=_events_text(0))
        noisy = _save(store, seed=1, events=_events_text(4))
        report = compare_runs(store, quiet, noisy)
        # A run without an event of some kind counts zero of it.
        assert _row(report, "events.alert")["delta"] == 4
        assert _row(report, "events.alert")["status"] == "changed"

    def test_absent_artifacts_yield_null_deltas(self, store):
        a, b = _save(store, seed=0), _save(store, seed=1)
        report = compare_runs(store, a, b)
        keys = {row["key"] for row in report["rows"]}
        assert not any(key.startswith(("slo.", "faults.")) for key in keys)
        assert report["attribution"] == {"timeseries": None, "profile": None}


class TestSerialization:
    def test_report_is_byte_stable(self, store):
        run = _save(store)
        a = compare_to_json(compare_runs(store, run, run))
        b = compare_to_json(compare_runs(store, run, run))
        assert a == b
        assert json.loads(a)["schema"] == "repro-compare/v2"
        assert json.loads(a)["kind"] == "runs"

    def test_render_shows_verdict_and_regressions(self, store):
        base = _save(store, seed=0, jct=10.0, faults=_faults_text(0))
        worse = _save(store, seed=1, jct=12.0, faults=_faults_text(2))
        text = render_compare(compare_runs(store, base, worse))
        assert "verdict: REGRESSED" in text
        assert "! regressed summary.jct_s: 10.0000 -> 12.0000" in text
        assert "! regressed faults.n_faults: 0 -> 2" in text
        assert "faults.by_kind.storage-throttle" in text


class TestMalformedArtifacts:
    """A bundle whose artifacts parse as JSON but have the wrong shape
    fails the compare with one stderr line and exit 2."""

    @pytest.mark.parametrize("artifacts", [
        {"slo": '{"verdict": [1]}'},
        {"slo": "[1]"},
        {"slo": '{"verdict": {"violations": [1, "deadline"]}}'},
        {"faults": '{"summary": [1]}'},
        {"faults": '{"summary": {"by_kind": [1]}}'},
        {"events": '{"schema": "repro-events/v1"}\n[1]\n'},
    ], ids=repr)
    def test_exits_2_with_one_line(self, store, artifacts, capsys):
        from repro.cli import main

        run = store.save(RunBundle(_stamp(), artifacts, summary={"jct_s": 1.0}))
        with pytest.raises(ValueError):
            compare_runs(store, run, run)
        assert main(["runs", "compare", run, run, "--store", str(store.root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro runs: ")
        assert err.count("\n") == 1
