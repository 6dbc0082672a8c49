"""Engine-level properties: determinism, capture round-trip, findings."""

import json

import pytest

from repro.diagnostics import DiagnosticsReport, RunObservation, diagnose
from repro.diagnostics.engine import JSON_SCHEMA, SEVERITIES
from repro.slo import EventLog
from repro.telemetry import get_registry, get_tracer
from repro.runs import Instruments
from repro.workflow.runner import run_training


class TestDeterminism:
    def test_same_seed_byte_identical_json(self, lr_higgs, lr_profile, lr_obs,
                                           observe):
        """Acceptance: same seed, same report, byte for byte."""
        _, rerun = observe(lr_higgs, lr_profile, budget_usd=2.0, seed=0)
        a = diagnose(lr_obs, candidates=lr_profile.candidates)
        b = diagnose(rerun, candidates=lr_profile.candidates)
        assert a.to_json() == b.to_json()

    def test_telemetry_capture_does_not_perturb_simulation(
        self, tmp_path, lr_higgs, lr_profile, lr_run
    ):
        """Acceptance: telemetry on or off, the simulation is identical."""
        plain = run_training(lr_higgs, budget_usd=2.0, seed=0, profile=lr_profile)
        with Instruments(
            paths={"telemetry": tmp_path / "t.json", "trace": tmp_path / "t.trace"}
        ):
            observed = run_training(
                lr_higgs, budget_usd=2.0, seed=0, profile=lr_profile
            )
        for run in (observed, lr_run):
            assert run.result.jct_s == plain.result.jct_s
            assert run.result.cost_usd == plain.result.cost_usd
            assert len(run.result.epochs) == len(plain.result.epochs)

    def test_collectors_restored_after_capture(self, tmp_path, lr_higgs,
                                               lr_profile):
        registry, tracer = get_registry(), get_tracer()
        with Instruments(paths={"telemetry": tmp_path / "t.json"}):
            run_training(lr_higgs, budget_usd=2.0, seed=0, profile=lr_profile)
        assert get_registry() is registry
        assert get_tracer() is tracer


class TestCaptureRoundTrip:
    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory, lr_higgs, lr_profile):
        """Telemetry + event-log files written the way `repro train` writes them."""
        out = tmp_path_factory.mktemp("capture")
        with Instruments(
            {"command": "train", "workload": lr_higgs.name,
             "method": "ce-scaling", "seed": 0},
            paths={"telemetry": out / "telemetry.json", "events": out / "events.jsonl"},
        ) as ins:
            run = run_training(
                lr_higgs, budget_usd=2.0, seed=0, profile=lr_profile
            )
            result = run.result
            ins.set_run_summary(
                {
                    "jct_s": result.jct_s,
                    "cost_usd": result.cost_usd,
                    "epochs": len(result.epochs),
                    "n_restarts": result.n_restarts,
                    "converged": result.converged,
                    "scheduling_overhead_s": result.scheduling_overhead_s,
                    "objective": run.objective.value,
                    "budget_usd": run.budget_usd,
                    "qos_s": run.qos_s,
                }
            )
        telemetry = json.loads((out / "telemetry.json").read_text())
        log = EventLog.from_jsonl((out / "events.jsonl").read_text())
        return run, RunObservation.from_capture(telemetry, log)

    def test_run_context_survives(self, capture):
        run, obs = capture
        assert obs.workload_name == "lr-higgs"
        assert obs.objective is run.objective
        assert obs.budget_usd == run.budget_usd
        assert obs.jct_s == run.result.jct_s
        assert obs.converged == run.result.converged

    def test_timeline_read_from_the_event_log(self, capture):
        run, obs = capture
        assert len(obs.epochs) == len(run.result.epochs)
        for rec, e in zip(run.result.epochs, obs.epochs):
            assert e.index == rec.index
            assert e.alloc_label == rec.allocation.describe()
            assert e.compute_s == rec.time.compute_s
            assert e.sync_s == rec.time.sync_s
            assert e.wall_s == rec.wall_s
            assert e.worker_durations_s == rec.worker_durations_s

    def test_capture_diagnosis_matches_live(self, capture, lr_obs, lr_profile):
        """The saved capture must tell the same critical-path story."""
        _, obs = capture
        live = diagnose(lr_obs, candidates=lr_profile.candidates)
        saved = diagnose(obs, candidates=lr_profile.candidates)
        for a, b in zip(live.critical_path.components,
                        saved.critical_path.components):
            assert a.component == b.component
            assert b.seconds == pytest.approx(a.seconds, abs=1e-6)
        assert saved.critical_path.jct_s == pytest.approx(
            live.critical_path.jct_s
        )


class TestReportShape:
    @pytest.fixture(scope="class")
    def report(self, lr_obs, lr_profile) -> DiagnosticsReport:
        return diagnose(lr_obs, candidates=lr_profile.candidates)

    def test_payload_schema(self, report):
        payload = report.to_payload()
        assert payload["schema"] == JSON_SCHEMA
        assert {"meta", "critical_path", "stragglers", "drift", "regret",
                "findings"} <= set(payload)
        assert payload["drift"] is not None
        assert payload["regret"] is not None

    def test_json_is_sorted_and_parseable(self, report):
        text = report.to_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_findings_ranked_warnings_first(self, report):
        assert report.findings
        severities = [f.severity for f in report.findings]
        assert all(s in SEVERITIES for s in severities)
        order = [SEVERITIES.index(s) for s in reversed(severities)]
        assert order == sorted(order, reverse=True)

    def test_findings_cover_applicable_analyses(self, report):
        kinds = {f.kind for f in report.findings}
        assert "bottleneck" in kinds
        assert "model-drift" in kinds
        assert "regret" in kinds

    def test_render_mentions_every_section(self, report):
        text = report.render()
        for needle in ("critical path", "stragglers", "model drift",
                       "ex-post regret", "findings"):
            assert needle in text

    def test_analyses_degrade_gracefully(self):
        """No workload, no objective: still a report, fewer sections."""
        obs = RunObservation(epochs=[], jct_s=0.0)
        report = diagnose(obs)
        assert report.drift is None
        assert report.regret is None
        assert report.findings == ()
