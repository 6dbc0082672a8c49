"""Instrumentation wiring: components record onto the installed collectors.

Each test installs a real registry/tracer (conftest fixtures), drives one
component, and asserts the expected metric families and spans appear with
values consistent with the component's returned results.
"""

import pytest

from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.tuning.plan import Objective
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training


def _spec(group="g", n=4, **kw):
    defaults = dict(memory_mb=1769, load_s=1.0, compute_s=5.0, sync_s=2.0)
    defaults.update(kw)
    return EpochExecution(group=group, n_functions=n, **defaults)


class TestPlatformMetrics:
    def test_invocations_and_cold_starts(self, registry):
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(n=4))
        p.execute_epoch(_spec(n=4))  # warm second epoch
        assert registry.get("repro_faas_invocations_total").value == 8
        assert registry.get("repro_faas_cold_starts_total").value == 4
        # One critical-path cold window, not n_cold windows.
        cold_s = registry.get("repro_faas_cold_start_seconds_total").value
        assert 0 < cold_s < 4 * p.platform.limits.cold_start_s

    def test_epoch_wall_histogram_matches_results(self, registry):
        p = FaaSPlatform(seed=0)
        a = p.execute_epoch(_spec())
        b = p.execute_epoch(_spec())
        (sample,) = registry.get("repro_faas_epoch_wall_seconds").snapshot().samples
        assert sample.count == 2
        assert sample.sum == a.wall_time_s + b.wall_time_s

    def test_occupancy_gauges(self, registry):
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(n=6))
        assert registry.get("repro_faas_concurrency_in_use").value == 6
        assert registry.get("repro_faas_concurrency_peak_in_use").value == 6

    def test_billing_components(self, registry):
        p = FaaSPlatform(seed=0)
        res = p.execute_epoch(_spec())
        snap = registry.get("repro_faas_billed_usd_total").snapshot()
        by_component = {s.labels["component"]: s.value for s in snap.samples}
        total = by_component["invocation"] + by_component["compute"]
        assert total == pytest.approx(res.billed_usd)
        assert registry.get("repro_faas_billed_gb_seconds_total").value > 0

    def test_live_spans_cover_epoch_phases(self, registry, tracer):
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(group="a"))
        names = {e.name for e in tracer.recorder.events}
        assert {"cold-start", "load", "compute", "sync"} <= names
        tracks = {e.track for e in tracer.recorder.events}
        assert tracks == {"group:a"}

    def test_no_cold_span_when_prewarmed(self, registry, tracer):
        p = FaaSPlatform(seed=0)
        p.prewarm("a", 4)
        p.execute_epoch(_spec(group="a", prewarmed=True))
        assert "cold-start" not in {e.name for e in tracer.recorder.events}


class TestWarmPoolMetrics:
    def test_hits_misses_evictions(self, registry):
        p = FaaSPlatform(seed=0, warm_ttl_s=1.0)
        p.execute_epoch(_spec(n=2, load_s=0.0, compute_s=0.1, sync_s=0.0))
        # TTL expires during a long unrelated epoch.
        p.execute_epoch(
            _spec(group="other", n=1, load_s=0.0, compute_s=50.0, sync_s=0.0)
        )
        p.execute_epoch(_spec(n=2, load_s=0.0, compute_s=0.1, sync_s=0.0))
        assert registry.get("repro_faas_warm_pool_misses_total").value >= 4
        assert registry.get("repro_faas_warm_pool_evictions_total").value >= 2

    def test_warm_hits_recorded(self, registry):
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(n=3))
        p.execute_epoch(_spec(n=3))
        assert registry.get("repro_faas_warm_pool_hits_total").value == 3

    def test_prewarm_counted(self, registry):
        p = FaaSPlatform(seed=0)
        p.prewarm("g", 5)
        assert registry.get("repro_faas_warm_pool_prewarmed_total").value == 5


class TestSchedulerAndPlannerMetrics:
    def test_training_run_populates_scheduler_families(
        self, registry, mobilenet, mobilenet_profile
    ):
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        run = run_training(
            mobilenet, method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget,
            seed=9, max_epochs=15, profile=mobilenet_profile,
        )
        assert registry.get("repro_scheduler_searches_total").value > 0
        updates = registry.get("repro_scheduler_prediction_updates_total")
        assert updates.value > 0
        realloc = registry.get("repro_scheduler_reallocations_total").value
        holds = registry.get("repro_scheduler_holds_total").value
        assert realloc + holds > 0
        assert realloc == sum(1 for e in run.result.epochs if e.restarted)

    def test_tuning_run_populates_planner_families(
        self, registry, lr_higgs, lr_profile
    ):
        from repro.tuning.sha import SHASpec
        from repro.workflow.job import tuning_envelope
        from repro.workflow.runner import run_tuning

        spec = SHASpec(32, 2, 2)
        budget = tuning_envelope(lr_profile, spec).budget(1.3)
        run_tuning(
            lr_higgs, spec, method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget,
            seed=5, profile=lr_profile,
        )
        assert registry.get("repro_planner_candidates_evaluated_total").value > 0
        assert registry.get("repro_planner_greedy_iterations_total").value > 0

    def test_restart_seconds_match_epoch_records(
        self, registry, mobilenet, mobilenet_profile
    ):
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        run = run_training(
            mobilenet, method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget,
            seed=9, max_epochs=15, profile=mobilenet_profile,
        )
        hidden = registry.get("repro_scheduler_restart_hidden_seconds_total")
        recorded = sum(e.hidden_restart_overlap_s for e in run.result.epochs)
        assert hidden.value == recorded

    def test_profiler_pareto_metrics(self, registry, lr_higgs):
        profile_workload(lr_higgs)
        points = registry.get("repro_profiler_points_evaluated_total").value
        ratio = registry.get("repro_profiler_pareto_pruning_ratio").value
        assert points > 0
        assert 0 < ratio <= 1.0


class TestLiveTraceTimeline:
    def test_restart_overlap_span_sits_inside_running_epoch(
        self, registry, tracer, mobilenet, mobilenet_profile
    ):
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        run = run_training(
            mobilenet, method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget,
            seed=9, max_epochs=15, profile=mobilenet_profile,
        )
        events = tracer.recorder.events
        epochs = {
            e.args["epoch"]: e for e in events
            if e.name == "epoch" and e.track == "epochs"
        }
        overlaps = [e for e in events if e.name == "restart-overlap"]
        if not overlaps:  # depends on whether this run reallocates
            assert all(
                r.hidden_restart_overlap_s == 0.0 for r in run.result.epochs
            )
            return
        for ov in overlaps:
            running = epochs[ov.args["epoch"]]
            # Hidden prewarm occupies the running epoch's trailing window.
            assert ov.start_s >= running.start_s - 1e-9
            end = running.start_s + running.duration_s
            assert ov.start_s + ov.duration_s <= end + 1e-9

    def test_trace_spans_end_at_jct(
        self, registry, tracer, mobilenet, mobilenet_profile
    ):
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        run = run_training(
            mobilenet, method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget,
            seed=9, max_epochs=15, profile=mobilenet_profile,
        )
        end = max(e.start_s + e.duration_s for e in tracer.recorder.events)
        assert abs(end - run.result.jct_s) < 1e-6
