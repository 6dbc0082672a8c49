"""Tests for Algorithm 2 (adaptive scheduler), selection, delayed restart."""

import functools
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytical.profiler import ParetoProfiler
from repro.common.errors import ConstraintError, PredictionError
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


@functools.cache
def _profile(name):
    return ParetoProfiler().profile(WORKLOADS[name])


WORKLOAD_NAMES = st.sampled_from(sorted(WORKLOADS))
OBJECTIVES = st.sampled_from(list(Objective))


@given(name=WORKLOAD_NAMES, objective=OBJECTIVES,
       remaining=st.floats(0.0, 500.0), position=st.floats(-1.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_selection_over_pareto_is_the_optimum_over_the_full_space(
    name, objective, remaining, position
):
    """Pareto soundness: whenever some profiled point meets the projected
    constraint, searching 𝒫 finds the best of the whole space."""
    profile = _profile(name)
    horizon = max(remaining, 1.0)
    if objective is Objective.MIN_JCT_GIVEN_BUDGET:
        spend, gain = (lambda p: p.cost_usd), (lambda p: p.time_s)
    else:
        spend, gain = (lambda p: p.time_s), (lambda p: p.cost_usd)
    # A constraint from well under the cheapest projection to over the dearest.
    lo, hi = (f(horizon * spend(p) for p in profile.all_points) for f in (min, max))
    limit = lo * (hi / lo) ** position
    key = "budget_usd" if objective is Objective.MIN_JCT_GIVEN_BUDGET else "qos_s"
    chosen = select_best_allocation(profile.pareto, objective, remaining, **{key: limit})
    assert chosen in profile.pareto
    feasible = [p for p in profile.all_points if horizon * spend(p) <= limit]
    if feasible:
        assert horizon * spend(chosen) <= limit
        assert gain(chosen) == min(gain(p) for p in feasible)


@st.composite
def scheduler_runs(draw):
    """A scheduler over one workload's 𝒫 and the epochs fed to it.

    Losses follow the workload's nominal curve at one drawn speed up to a
    drawn epoch and at another after it, with per-epoch noise, so the
    online prediction drifts both ways, early and late."""
    name = draw(WORKLOAD_NAMES)
    w, profile = WORKLOADS[name], _profile(name)
    objective = draw(OBJECTIVES)
    multiple = draw(st.floats(0.3, 3.0))
    if objective is Objective.MIN_JCT_GIVEN_BUDGET:
        unit = profile.cheapest().cost_usd
        constraint = {"budget_usd": multiple * w.nominal_epochs * unit}
    else:
        unit = profile.fastest().time_s
        constraint = {"qos_s": multiple * w.nominal_epochs * unit}
    sched = AdaptiveScheduler(
        workload=w, candidates=profile.pareto, objective=objective,
        delta=draw(st.floats(0.01, 0.5)),
        adjust_every_epoch=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)), **constraint,
    )
    params = w.curve_params()
    # The first speed reaches the target loss after 3 to 25 epochs, often
    # after 8 to 16: drift first seen there, at the first fits, can come with
    # 3 or fewer epochs left. The run stops from a few epochs before the
    # target to a few after.
    reach = draw(st.floats(8.0, 16.0) | st.floats(3.0, 25.0))
    speed = params.epochs_to(w.target_loss) / reach
    speeds = (speed, speed * draw(st.floats(0.3, 3.0)))
    n = max(1, round(reach) + draw(st.integers(-3, 8)))
    switch = draw(st.integers(0, n))
    noise = draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    spend = st.floats(0.0, 2.0 * unit)
    epochs = [
        (params.loss_at(speeds[0] * min(e, switch) + speeds[1] * max(e - switch, 0))
         * (1.0 + z), draw(spend), draw(spend))
        for e, z in enumerate(noise, start=1)
    ]
    return sched, epochs


class _State(NamedTuple):
    predicted: float
    searches: int
    current: object
    spent: float
    elapsed: float


def _state(sched):
    return _State(sched.predicted_total_epochs, sched.n_searches, sched.current,
                  sched.spent_usd, sched.elapsed_s)


def _drive(sched, epochs):
    """Run the epochs; per epoch, the raw online prediction (None when the
    predictor raised), the scheduler state before and after, and the
    decision."""
    predict = sched.online.predict_total_epochs
    raw = []

    def spy():
        try:
            value = predict()
        except PredictionError:
            raw.append(None)
            raise
        raw.append(value)
        return value

    sched.online.predict_total_epochs = spy
    sched.initial_decision()
    trace = []
    for loss, cost, time_s in epochs:
        before = _state(sched)
        decision = sched.on_epoch_end(loss, cost, time_s)
        trace.append((raw[-1], before, _state(sched), decision))
    return trace


@given(run=scheduler_runs())
@settings(max_examples=150, deadline=None)
def test_restart_needs_two_drifted_epochs_and_work_left(run):
    """Alg. 2 acts (re-selects, maybe restarts) only after two consecutive
    predictions whose median-of-three drifts more than δ from the acted-on
    one, with more than 3 predicted epochs left; Siren's
    ``adjust_every_epoch`` acts on every prediction. An epoch without a
    prediction holds and leaves the streak as it was."""
    sched, epochs = run
    trace = _drive(sched, epochs)
    acted_on = trace[0][1].predicted  # the offline prediction
    history, streak = [], 0
    for epoch, (value, before, after, decision) in enumerate(trace, 1):
        acted = after.searches > before.searches
        if decision.restart:
            assert acted and decision.point.allocation != before.current.allocation
        if value is None:
            assert not acted
            continue
        history.append(value)
        recent = sorted(history[-3:])
        smoothed = recent[len(recent) // 2]
        drift = abs(smoothed - acted_on) / max(acted_on, 1e-9)
        streak = streak + 1 if drift > sched.delta else 0
        assert acted == (sched.adjust_every_epoch
                         or (streak >= 2 and smoothed - epoch > 3.0))
        if acted:
            acted_on = smoothed


@given(run=scheduler_runs())
@settings(max_examples=60, deadline=None)
def test_predicted_total_changes_only_on_acted_on_epochs(run):
    sched, epochs = run
    for _, before, after, decision in _drive(sched, epochs):
        if after.predicted != before.predicted:
            assert after.searches > before.searches
        assert decision.predicted_total_epochs == after.predicted


@given(run=scheduler_runs())
@settings(max_examples=60, deadline=None)
def test_spend_and_elapsed_are_left_to_right_sums(run):
    sched, epochs = run
    spent = elapsed = 0.0
    for (_, cost, time_s), (_, _, after, _) in zip(epochs, _drive(sched, epochs)):
        spent += cost
        elapsed += time_s
        assert (after.spent, after.elapsed) == (spent, elapsed)


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
