"""Tests for Algorithm 2 (adaptive scheduler), selection, delayed restart."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConstraintError
from repro.common.types import Allocation, StorageKind
from repro.config import DEFAULT_PLATFORM
from repro.ml.models import WORKLOADS, workload
from repro.tuning.plan import Objective
from repro.training.adaptive_scheduler import (
    AdaptiveScheduler,
    select_best_allocation,
)
from repro.training.delayed_restart import DelayedRestartPlanner


class TestSelectBestAllocation:
    def test_fastest_affordable(self, lr_profile):
        budget = 1000.0  # effectively unconstrained
        p = select_best_allocation(
            lr_profile.pareto, Objective.MIN_JCT_GIVEN_BUDGET, 10, budget_usd=budget
        )
        assert p is lr_profile.fastest()

    def test_cheapest_meeting_deadline(self, lr_profile):
        qos = 1e9
        p = select_best_allocation(
            lr_profile.pareto, Objective.MIN_COST_GIVEN_QOS, 10, qos_s=qos
        )
        assert p is lr_profile.cheapest()

    def test_budget_constrains_choice(self, lr_profile):
        horizon = 40
        tight = lr_profile.cheapest().cost_usd * horizon * 1.2
        p = select_best_allocation(
            lr_profile.pareto, Objective.MIN_JCT_GIVEN_BUDGET, horizon,
            budget_usd=tight,
        )
        assert horizon * p.cost_usd <= tight

    def test_mixed_rule_when_infeasible(self, lr_profile):
        """With a budget that cannot cover the horizon at any point, the
        selection still returns something runnable."""
        horizon = 1000
        budget = lr_profile.cheapest().cost_usd * 10
        p = select_best_allocation(
            lr_profile.pareto, Objective.MIN_JCT_GIVEN_BUDGET, horizon,
            budget_usd=budget,
        )
        assert p in lr_profile.pareto

    def test_missing_constraint_rejected(self, lr_profile):
        with pytest.raises(ConstraintError):
            select_best_allocation(
                lr_profile.pareto, Objective.MIN_JCT_GIVEN_BUDGET, 10
            )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConstraintError):
            select_best_allocation([], Objective.MIN_JCT_GIVEN_BUDGET, 1,
                                   budget_usd=1.0)


class TestAdaptiveScheduler:
    def _scheduler(self, lr_higgs, lr_profile, budget=5.0, delta=0.1):
        return AdaptiveScheduler(
            workload=lr_higgs,
            candidates=lr_profile.pareto,
            objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget,
            delta=delta,
            seed=0,
        )

    def test_initial_decision_uses_offline(self, lr_higgs, lr_profile):
        sched = self._scheduler(lr_higgs, lr_profile)
        d = sched.initial_decision()
        assert d.predicted_total_epochs >= 1
        assert not d.restart
        assert d.search_overhead_s > 0

    def test_on_epoch_end_requires_init(self, lr_higgs, lr_profile):
        sched = self._scheduler(lr_higgs, lr_profile)
        with pytest.raises(ConstraintError):
            sched.on_epoch_end(0.5, 0.01, 10.0)

    def test_no_restart_without_drift(self, lr_higgs, lr_profile):
        """Feeding losses from the exact nominal curve keeps predictions at
        the prior horizon: no restarts fire."""
        sched = self._scheduler(lr_higgs, lr_profile)
        sched.initial_decision()
        # Force the offline horizon to the nominal value for cleanliness.
        sched.predicted_total_epochs = lr_higgs.nominal_epochs
        params = lr_higgs.curve_params()
        restarts = 0
        for e in range(1, 20):
            d = sched.on_epoch_end(params.loss_at(e), 0.01, 5.0)
            restarts += d.restart
        assert restarts <= 1

    def test_budget_accounting(self, lr_higgs, lr_profile):
        sched = self._scheduler(lr_higgs, lr_profile, budget=10.0)
        sched.initial_decision()
        sched.on_epoch_end(0.69, 2.0, 5.0)
        sched.on_epoch_end(0.68, 3.0, 5.0)
        assert sched.spent_usd == pytest.approx(5.0)
        assert sched._remaining_budget() == pytest.approx(5.0)

    def test_siren_mode_adjusts_every_epoch(self, lr_higgs, lr_profile):
        sched = AdaptiveScheduler(
            workload=lr_higgs,
            candidates=lr_profile.pareto,
            objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=5.0,
            adjust_every_epoch=True,
            seed=0,
        )
        sched.initial_decision()
        params = lr_higgs.curve_params()
        searches_before = sched.n_searches
        for e in range(1, 8):
            sched.on_epoch_end(params.loss_at(e), 0.01, 5.0)
        assert sched.n_searches > searches_before + 2


class TestDelayedRestart:
    def test_overhead_hidden_when_epoch_long(self, lr_higgs):
        planner = DelayedRestartPlanner()
        alloc = Allocation(10, 1769, StorageKind.S3)
        lead = planner.lead_time_s(lr_higgs, alloc)
        plan = planner.plan_restart(lr_higgs, alloc, overlap_epoch_duration_s=lead * 3)
        assert plan.visible_overhead_s == 0.0
        assert plan.hidden_overhead_s == pytest.approx(lead)

    def test_partial_hiding_when_epoch_short(self, lr_higgs):
        planner = DelayedRestartPlanner()
        alloc = Allocation(10, 1769, StorageKind.S3)
        lead = planner.lead_time_s(lr_higgs, alloc)
        plan = planner.plan_restart(lr_higgs, alloc, overlap_epoch_duration_s=lead / 2)
        assert plan.visible_overhead_s == pytest.approx(lead / 2)

    def test_disabled_exposes_everything(self, lr_higgs):
        planner = DelayedRestartPlanner(enabled=False)
        alloc = Allocation(10, 1769, StorageKind.S3)
        lead = planner.lead_time_s(lr_higgs, alloc)
        plan = planner.plan_restart(lr_higgs, alloc, overlap_epoch_duration_s=1e9)
        assert plan.visible_overhead_s == pytest.approx(lead)
        assert plan.hidden_overhead_s == 0.0

    def test_lead_time_includes_cold_start_and_load(self, lr_higgs):
        from repro.analytical.timemodel import epoch_time
        from repro.config import DEFAULT_PLATFORM

        planner = DelayedRestartPlanner()
        alloc = Allocation(10, 1769, StorageKind.S3)
        t = epoch_time(lr_higgs, alloc)
        assert planner.lead_time_s(lr_higgs, alloc) == pytest.approx(
            DEFAULT_PLATFORM.limits.cold_start_s + t.load_s
        )

    def test_launch_offset_geometry(self, lr_higgs):
        """New functions launch so they finish exactly at epoch end."""
        planner = DelayedRestartPlanner()
        alloc = Allocation(10, 1769, StorageKind.S3)
        lead = planner.lead_time_s(lr_higgs, alloc)
        epoch = lead * 2
        plan = planner.plan_restart(lr_higgs, alloc, overlap_epoch_duration_s=epoch)
        assert plan.launch_offset_s + lead == pytest.approx(epoch)

    @given(
        data=st.data(),
        name=st.sampled_from(sorted(WORKLOADS)),
        overlap=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        enabled=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_plan_accounts_for_the_whole_lead_time(self, data, name, overlap, enabled):
        """Fig. 8: the overlapped epoch hides min(lead, epoch) of the switch."""
        w = WORKLOADS[name]
        n = data.draw(st.integers(min_value=1, max_value=256))
        memory = data.draw(
            st.integers(w.min_memory_mb(n), DEFAULT_PLATFORM.limits.max_memory_mb)
        )
        storage = data.draw(st.sampled_from([
            k for k in StorageKind
            if w.model_mb <= DEFAULT_PLATFORM.storage_config(k).object_limit_mb
        ]))
        planner = DelayedRestartPlanner(enabled=enabled)
        alloc = Allocation(n, memory, storage)
        plan = planner.plan_restart(w, alloc, overlap_epoch_duration_s=overlap)
        lead = planner.lead_time_s(w, alloc)
        assert plan.lead_time_s == lead
        assert plan.hidden_overhead_s + plan.visible_overhead_s == pytest.approx(lead)
        assert plan.hidden_overhead_s == (min(lead, overlap) if enabled else 0.0)
        assert plan.launch_offset_s >= 0.0
