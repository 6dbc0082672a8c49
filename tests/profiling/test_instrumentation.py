"""The hot paths actually report into the profiler, with full attribution.

These tests drive the real planner and scheduler code under an
installed profiler (the ``profiler`` fixture) and pin the acceptance
criteria: planner wall time is >= 95% attributed to named child frames,
and the per-site ``candidates_evaluated`` counters sum exactly to the
planner's own ``PlannerStats``.
"""

import pytest

from repro.telemetry import set_registry
from repro.telemetry.metrics import MetricsRegistry
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.plan import Objective, evaluate_plan
from repro.tuning.static_planner import static_plan
from repro.tuning.sha import SHASpec
from repro.workflow.job import training_envelope
from repro.workflow.runner import run_training

PLAN = ("planner/plan",)
COUNTER_SITES = (
    ("planner/plan", "planner/warm_start"),
    ("planner/plan", "planner/recycle_reinvest"),
    ("planner/plan", "planner/spend_remainder"),
)


class TestPlannerAttribution:
    @pytest.fixture
    def planned(self, lr_profile, profiler):
        ladder = sorted(lr_profile.pareto, key=lambda p: p.cost_usd)
        spec = SHASpec(32, 2, 2)
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            result = GreedyHeuristicPlanner().plan(
                ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
                budget_usd=cheap_ev.cost_usd * 1.3,
            )
        finally:
            set_registry(None)
        return result, profiler, registry

    def test_counters_sum_to_planner_stats(self, planned):
        result, profiler, _ = planned
        credited = sum(
            profiler.frames[path].counters.get("candidates_evaluated", 0.0)
            for path in COUNTER_SITES
            if path in profiler.frames
        )
        assert credited == result.stats.candidates_evaluated
        assert credited > 0

    def test_planner_wall_time_mostly_attributed(self, planned):
        """>= 95% of planner/plan inclusive time sits in named children."""
        _, profiler, _ = planned
        plan_total = profiler.frames[PLAN].total_s
        child_total = sum(
            stat.total_s
            for path, stat in profiler.frames.items()
            if len(path) == 2 and path[0] == "planner/plan"
        )
        assert plan_total > 0
        assert child_total / plan_total >= 0.95

    def test_registry_agrees_with_profiler_counters(self, planned):
        result, _, registry = planned
        samples = [
            s
            for m in registry.snapshot()
            if m.name == "repro_planner_candidates_evaluated_total"
            for s in m.samples
        ]
        assert sum(s.value for s in samples) == result.stats.candidates_evaluated


class TestSchedulerFrames:
    def test_training_run_reports_scheduler_frames(
        self, mobilenet, mobilenet_profile, profiler
    ):
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        run_training(
            mobilenet, method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget,
            seed=3, max_epochs=10, profile=mobilenet_profile,
        )
        paths = {"/".join(p) for p in profiler.frames}
        assert "train/run" in paths
        assert "train/run/scheduler/initial_decision" in paths
        assert "train/run/scheduler/refit" in paths
        assert "train/run/train/execute_epoch" in paths
        init = profiler.frames[("train/run", "scheduler/initial_decision")]
        assert init.counters["candidates_considered"] > 0
        epoch = profiler.frames[("train/run", "train/execute_epoch")]
        assert epoch.counters["functions"] > 0
