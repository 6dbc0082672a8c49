"""Ex-post regret: replaying decisions with the observed horizon."""

import dataclasses

import pytest

from repro.common.errors import ConstraintError
from repro.diagnostics import RunObservation, audit_regret
from repro.diagnostics.timeline import EpochObservation
from repro.tuning.plan import Objective


class TestLiveRun:
    def test_initial_decision_audited(self, lr_obs, lr_profile):
        audit = audit_regret(lr_obs, lr_profile.candidates)
        assert audit.decisions_total >= 1
        assert audit.points[0].decided_before_epoch == 1
        assert audit.points[0].remaining_epochs == len(lr_obs.epochs)
        assert audit.objective is Objective.MIN_JCT_GIVEN_BUDGET

    def test_segments_cover_run(self, lr_obs, lr_profile):
        audit = audit_regret(lr_obs, lr_profile.candidates)
        assert sum(p.segment_epochs for p in audit.points) == len(lr_obs.epochs)

    def test_optimal_decision_has_zero_regret(self, lr_obs, lr_profile):
        audit = audit_regret(lr_obs, lr_profile.candidates)
        for p in audit.points:
            if p.optimal:
                assert p.time_regret_s == pytest.approx(0.0)
                assert p.cost_regret_usd == pytest.approx(0.0)


class TestSuboptimalChoice:
    def test_slow_choice_accrues_time_regret(self, lr_obs, lr_profile):
        """Pin every epoch to the slowest Pareto point: under a generous
        budget the hindsight-best is faster, so time regret is positive."""
        candidates = lr_profile.candidates
        slowest = max(candidates, key=lambda p: p.time_s)
        fastest = min(candidates, key=lambda p: p.time_s)
        assert slowest.time_s > fastest.time_s
        epochs = [
            dataclasses.replace(
                e,
                allocation=slowest.allocation,
                alloc_label=slowest.allocation.describe(),
            )
            for e in lr_obs.epochs
        ]
        obs = dataclasses.replace(lr_obs, epochs=epochs, budget_usd=1e9)
        audit = audit_regret(obs, candidates)
        assert audit.decisions_total == 1
        point = audit.points[0]
        assert not point.optimal
        assert point.hindsight_best == fastest.allocation.describe()
        assert audit.total_time_regret_s > 0.0

    def test_off_front_choice_resolved_analytically(self, lr_obs, lr_profile,
                                                    lr_higgs):
        """A chosen θ that is not on the audited front (baseline pick) is
        priced through Eq. (2)/(4) instead of being dropped."""
        front = {p.allocation for p in lr_profile.candidates}
        off_front = next(
            p.allocation
            for p in lr_profile.all_points
            if p.allocation not in front
        )
        epochs = [
            dataclasses.replace(
                e, allocation=off_front, alloc_label=off_front.describe()
            )
            for e in lr_obs.epochs
        ]
        obs = dataclasses.replace(lr_obs, epochs=epochs)
        audit = audit_regret(obs, lr_profile.candidates, workload=lr_higgs)
        assert audit.skipped == 0
        assert audit.points[0].chosen == off_front.describe()


class TestValidation:
    def test_no_objective_raises(self, lr_obs, lr_profile):
        obs = dataclasses.replace(lr_obs, objective=None)
        with pytest.raises(ConstraintError):
            audit_regret(obs, lr_profile.candidates)

    def test_empty_candidates_raise(self, lr_obs):
        with pytest.raises(ConstraintError):
            audit_regret(lr_obs, [])

    def test_reallocation_creates_second_decision(self, lr_profile):
        a = lr_profile.candidates[0]
        b = lr_profile.candidates[-1]
        epochs = []
        for i, point in enumerate([a, a, b, b, b], start=1):
            epochs.append(
                EpochObservation(
                    index=i, alloc_label=point.allocation.describe(),
                    allocation=point.allocation, load_s=0.1,
                    compute_s=point.time_s, sync_s=0.1, cold_start_s=0.0,
                    wall_s=point.time_s + 0.2,
                    cost_usd=point.cost_usd,
                )
            )
        obs = RunObservation(
            epochs=epochs, jct_s=sum(e.wall_s for e in epochs),
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=100.0,
        )
        audit = audit_regret(obs, lr_profile.candidates)
        assert audit.decisions_total == 2
        assert [p.segment_epochs for p in audit.points] == [2, 3]
        assert audit.points[1].remaining_epochs == 3
