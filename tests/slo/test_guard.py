"""The live guard end to end: projection-before-miss, replay, determinism.

The determinism contract mirrors the telemetry layer's: the guard is
strictly observational (same seed, same simulation results with it on or
off), and a guarded run that raises *no* alerts leaves telemetry and
trace captures byte-identical to a guard-off run.
"""

import json

from repro.runs import Instruments
from repro.slo import SLOGuard, SLOSpec, evaluate_guard, replay_events
from repro.slo.events import EventLog
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    set_registry,
    set_tracer,
)
from repro.telemetry.exporters import snapshots_to_payload
from repro.tuning.plan import Objective
from repro.workflow.job import training_envelope
from repro.workflow.runner import run_training


def _run(workload, profile, seed=9, max_epochs=15):
    """One ce-scaling training run (default: short, for the cheap tests)."""
    budget = training_envelope(workload, profile).budget(2.5)
    return run_training(
        workload,
        method="ce-scaling",
        objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=budget,
        seed=seed,
        max_epochs=max_epochs,
        profile=profile,
    ).result


def _quiet_spec() -> SLOSpec:
    """Limits no run can reach and auxiliary rules disabled: zero alerts."""
    return SLOSpec(
        name="quiet",
        deadline_s=1e15,
        budget_usd=1e15,
        predictor_drift_threshold=None,
        straggler_slowdown=None,
    )


class TestProjectionBeforeMiss:
    def test_projected_miss_fires_before_the_deadline_is_crossed(
        self, lr_higgs, lr_profile
    ):
        """The acceptance criterion: the guard forecasts the violation
        epochs before the run actually crosses the deadline."""
        unguarded = _run(lr_higgs, lr_profile, seed=0, max_epochs=400)
        deadline = 0.6 * unguarded.jct_s

        spec = SLOSpec(name="tight", deadline_s=deadline)
        with Instruments(slo=spec) as ins:
            guarded = _run(lr_higgs, lr_profile, seed=0, max_epochs=400)

        by_rule = {a.rule: a for a in ins.guard.alerts}
        projected = by_rule["deadline-projected-miss"]
        exhausted = by_rule["deadline-exhausted"]
        assert projected.fired_epoch < exhausted.fired_epoch
        assert projected.fired_t_s < deadline <= exhausted.fired_t_s
        # The guard never perturbs the simulation it watches.
        assert guarded.jct_s == unguarded.jct_s
        assert guarded.cost_usd == unguarded.cost_usd
        report = evaluate_guard(ins.guard)
        assert report.violated and report.violations == ("deadline",)


class TestReplay:
    def test_replay_matches_live_guard(self, mobilenet, mobilenet_profile):
        spec = SLOSpec(name="replay", deadline_s=60.0, budget_usd=1.0)
        with Instruments(slo=spec) as ins:
            _run(mobilenet, mobilenet_profile)
        live = evaluate_guard(ins.guard)

        text = ins.texts["events"]
        replayed = replay_events(spec, text)
        assert (
            replayed.to_payload()["objectives"] == live.to_payload()["objectives"]
        )
        assert [a.to_payload() for a in replayed.alerts] == [
            a.to_payload() for a in ins.guard.alerts
        ]
        # The log itself round-trips byte-exactly.
        assert EventLog.from_jsonl(text).to_jsonl() == text

    def test_events_path_written_on_clean_exit(
        self, tmp_path, mobilenet, mobilenet_profile
    ):
        path = tmp_path / "events.jsonl"
        with Instruments({"seed": 9}, paths={"events": path}) as ins:
            _run(mobilenet, mobilenet_profile)
        assert ins.guard is None  # log only, no spec
        log = EventLog.from_jsonl(path.read_text())
        assert log.meta == {"seed": 9}
        assert {e.kind for e in log.events} >= {"plan_chosen", "epoch_done"}


class TestDeterminism:
    def test_event_log_identical_across_same_seed_runs(
        self, mobilenet, mobilenet_profile
    ):
        texts = []
        for _ in range(2):
            with Instruments(slo=_quiet_spec()) as ins:
                _run(mobilenet, mobilenet_profile)
            texts.append(ins.texts["events"])
        assert texts[0] == texts[1]

    def test_quiet_guard_leaves_telemetry_and_trace_byte_identical(
        self, mobilenet, mobilenet_profile
    ):
        """A guarded run with zero alerts must not leave any footprint in
        the metrics snapshot or the Chrome trace."""

        def capture(instruments):
            registry, tracer = MetricsRegistry(), Tracer()
            set_registry(registry)
            set_tracer(tracer)
            try:
                with instruments:
                    _run(mobilenet, mobilenet_profile)
            finally:
                set_registry(None)
                set_tracer(None)
            metrics = json.dumps(
                snapshots_to_payload(registry.snapshot()), sort_keys=True
            )
            return metrics, tracer.to_chrome_trace()

        off_metrics, off_trace = capture(Instruments())  # inert
        on_metrics, on_trace = capture(Instruments(slo=_quiet_spec()))
        assert on_metrics == off_metrics
        assert on_trace == off_trace

    def test_alerting_guard_marks_metrics_and_trace(
        self, mobilenet, mobilenet_profile
    ):
        """Guard against the trivial pass: when alerts do fire, the lazy
        counter family and the trace instants appear."""
        registry, tracer = MetricsRegistry(), Tracer()
        set_registry(registry)
        set_tracer(tracer)
        try:
            spec = SLOSpec(name="tight", deadline_s=1.0)
            with Instruments(slo=spec) as ins:
                _run(mobilenet, mobilenet_profile)
        finally:
            set_registry(None)
            set_tracer(None)
        assert ins.guard.alerts
        fired = registry.get("repro_slo_alerts_total")
        assert fired is not None
        trace = json.loads(tracer.to_chrome_trace())
        instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert instants and instants[0]["cat"] == "slo"


class TestGuardUnit:
    def test_epoch_events_advance_accounting(self):
        guard = SLOGuard(SLOSpec(name="u", deadline_s=100.0, budget_usd=1.0))
        log = EventLog()
        log.append("plan_chosen", 0.0, scope="train", predicted_total_epochs=4)
        for i, t in enumerate((2.0, 4.0), start=1):
            log.append(
                "epoch_done", t, scope="train",
                epoch=i, wall_s=2.0, cost_usd=0.05,
            )
        for event in log.events:
            guard.on_event(event)
        acct = guard.accountant
        assert acct.epochs_done == 2
        assert acct.elapsed_s == 4.0
        assert acct.billed_usd == 0.1
        assert acct.projected_jct_s() == 8.0

    def test_alert_lines_mirrored_into_the_log(self):
        guard = SLOGuard(SLOSpec(name="u", deadline_s=1.0))
        guard.on_event(
            EventLog().append("epoch_done", 2.0, scope="train",
                              epoch=1, wall_s=2.0, cost_usd=0.0)
        )
        kinds = [e.kind for e in guard.log.events]
        assert kinds == ["epoch_done", "alert_fired", "alert_fired"]
        mirrored = guard.log.events[1]
        assert mirrored.data["rule"] in ("deadline-exhausted", "deadline-burn")
        assert mirrored.data["severity"] in ("critical", "warning")
