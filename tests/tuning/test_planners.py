"""Tests for the partitioning plan, static planners and Algorithm 1."""

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConstraintError, ValidationError
from repro.tuning.greedy_planner import GreedyHeuristicPlanner, PlannerStats
from repro.tuning.plan import (
    Objective,
    PartitionPlan,
    PlanEvaluation,
    evaluate_plan,
    stage_sum,
    stage_waves,
)
from repro.tuning.sha import SHASpec
from repro.tuning.static_planner import (
    even_budget_plan,
    optimal_static_plan,
    static_plan,
)


@pytest.fixture(scope="module")
def spec():
    return SHASpec(256, 2, 2)


@pytest.fixture(scope="module")
def ladder(lr_profile):
    return sorted(lr_profile.pareto, key=lambda p: p.cost_usd)


class TestPlanEvaluation:
    def test_uniform_plan_shape(self, ladder, spec):
        plan = PartitionPlan.uniform(ladder[0], spec.n_stages)
        assert len(plan.stages) == spec.n_stages

    def test_empty_plan_rejected(self):
        with pytest.raises(ValidationError):
            PartitionPlan(())

    def test_wrong_stage_count_rejected(self, ladder, spec):
        plan = PartitionPlan.uniform(ladder[0], 3)
        with pytest.raises(ValidationError):
            evaluate_plan(plan, spec)

    def test_jct_is_sum_of_stage_times(self, ladder, spec):
        plan = PartitionPlan.uniform(ladder[0], spec.n_stages)
        ev = evaluate_plan(plan, spec)
        assert ev.jct_s == pytest.approx(sum(ev.stage_jct_s))
        assert ev.cost_usd == pytest.approx(sum(ev.stage_cost_usd))

    def test_stage_cost_scales_with_trials(self, ladder, spec):
        plan = PartitionPlan.uniform(ladder[0], spec.n_stages)
        ev = evaluate_plan(plan, spec)
        # Uniform allocation: stage cost ratio equals trial-count ratio.
        assert ev.stage_cost_usd[0] / ev.stage_cost_usd[1] == pytest.approx(2.0)

    def test_waves_respect_concurrency(self):
        assert stage_waves(16384, 10) == math.ceil(163840 / 3000)
        assert stage_waves(10, 10) == 1

    def test_replace_stage(self, ladder, spec):
        plan = PartitionPlan.uniform(ladder[0], spec.n_stages)
        other = plan.replace_stage(2, ladder[-1])
        assert other.stages[2] is ladder[-1]
        assert plan.stages[2] is ladder[0]


class TestStaticPlanners:
    def test_static_plan_uniform(self, ladder, spec):
        plan = static_plan(ladder[3], spec)
        assert all(p is ladder[3] for p in plan.stages)

    def test_optimal_static_min_jct(self, ladder, spec):
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        budget = cheap_ev.cost_usd * 1.5
        plan = optimal_static_plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget
        )
        ev = evaluate_plan(plan, spec)
        assert ev.cost_usd <= budget
        # Must beat the naive cheapest choice on JCT.
        assert ev.jct_s <= cheap_ev.jct_s

    def test_optimal_static_min_cost(self, ladder, spec):
        fast_ev = evaluate_plan(static_plan(ladder[-1], spec), spec)
        qos = fast_ev.jct_s * 2.0
        plan = optimal_static_plan(
            ladder, spec, Objective.MIN_COST_GIVEN_QOS, qos_s=qos
        )
        ev = evaluate_plan(plan, spec)
        assert ev.jct_s <= qos
        assert ev.cost_usd <= fast_ev.cost_usd

    def test_infeasible_falls_back_to_closest(self, ladder, spec):
        plan = optimal_static_plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=1e-9
        )
        ev = evaluate_plan(plan, spec)
        # Best effort: the cheapest uniform plan.
        assert ev.cost_usd == pytest.approx(
            evaluate_plan(static_plan(ladder[0], spec), spec).cost_usd
        )

    def test_missing_constraint_rejected(self, ladder, spec):
        with pytest.raises(ConstraintError):
            optimal_static_plan(ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET)

    def test_even_budget_starves_early_stages(self, ladder, spec):
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        plan = even_budget_plan(ladder, spec, cheap_ev.cost_usd * 1.5)
        # Early stages (many trials) get cheaper points than late stages.
        assert plan.stages[0].cost_usd <= plan.stages[-1].cost_usd


class TestGreedyPlanner:
    def test_never_worse_than_static(self, ladder, spec):
        """The paper's Remark: the greedy result is never worse than the
        optimal static warm start."""
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        for mult in (1.1, 1.5, 3.0):
            res = GreedyHeuristicPlanner().plan(
                ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
                budget_usd=cheap_ev.cost_usd * mult,
            )
            assert res.evaluation.jct_s <= res.static_evaluation.jct_s + 1e-9
            assert res.evaluation.cost_usd <= cheap_ev.cost_usd * mult + 1e-9

    def test_improves_under_tight_budget(self, ladder, spec):
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap_ev.cost_usd * 1.1,
        )
        assert res.evaluation.jct_s < res.static_evaluation.jct_s * 0.95

    def test_cost_min_respects_qos(self, ladder, spec):
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        qos = cheap_ev.jct_s * 0.5
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_COST_GIVEN_QOS, qos_s=qos
        )
        assert res.evaluation.jct_s <= qos + 1e-9
        assert res.evaluation.cost_usd <= res.static_evaluation.cost_usd + 1e-9

    def test_early_stages_not_richer_than_late(self, ladder, spec):
        """CE's signature shape: per-trial spend grows toward late stages."""
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap_ev.cost_usd * 1.2,
        )
        first = res.plan.stages[0].cost_usd
        last = res.plan.stages[-1].cost_usd
        assert last >= first

    def test_missing_constraint_rejected(self, ladder, spec):
        with pytest.raises(ConstraintError):
            GreedyHeuristicPlanner().plan(
                ladder, spec, Objective.MIN_COST_GIVEN_QOS
            )

    def test_infeasible_budget_flagged(self, ladder, spec):
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=1e-9
        )
        assert not res.feasible

    def test_stats_populated(self, ladder, spec):
        cheap_ev = evaluate_plan(static_plan(ladder[0], spec), spec)
        res = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap_ev.cost_usd * 1.5,
        )
        assert res.stats.candidates_evaluated > 0
        assert res.stats.wall_time_s > 0


@dataclass
class ScalarGreedyPlanner:
    """Reference: Algorithm 1 scoring one candidate plan at a time.

    The planner as it was before its moves were scored in array passes,
    kept here (without instrumentation) to pin the array version's
    plans, evaluations and counters. Its stage totals use ``stage_sum``,
    the same left-to-right order as ``evaluate_plan``, so the comparison
    is exact on every Python version.
    """

    delta: float = 0.001

    def _build_cache(self, ladder, spec):
        self._index = {p.allocation: j for j, p in enumerate(ladder)}
        self._stage_jct = []
        self._stage_cost = []
        for i in range(spec.n_stages):
            q = spec.trials_in_stage(i)
            r = spec.epochs_in_stage(i)
            jct_row = []
            cost_row = []
            for p in ladder:
                waves = stage_waves(q, p.allocation.n_functions)
                jct_row.append(r * p.time_s * waves)
                cost_row.append(q * r * p.cost_usd)
            self._stage_jct.append(jct_row)
            self._stage_cost.append(cost_row)

    def _eval(self, plan, stats):
        stats.candidates_evaluated += 1
        jct = []
        cost = []
        for i, point in enumerate(plan.stages):
            j = self._index[point.allocation]
            jct.append(self._stage_jct[i][j])
            cost.append(self._stage_cost[i][j])
        return PlanEvaluation(
            jct_s=stage_sum(jct),
            cost_usd=stage_sum(cost),
            stage_jct_s=tuple(jct),
            stage_cost_usd=tuple(cost),
        )

    @staticmethod
    def _index_of(ladder, point):
        for i, p in enumerate(ladder):
            if p.allocation == point.allocation:
                return i
        raise ConstraintError("plan references an allocation outside the candidate set")

    def _neighbors(self, plan, ladder, direction, exclude=frozenset()):
        moves = []
        for i, point in enumerate(plan.stages):
            if i in exclude:
                continue
            j = self._index_of(ladder, point) + direction
            if 0 <= j < len(ladder):
                moves.append((i, plan.replace_stage(i, ladder[j])))
        return moves

    @staticmethod
    def _objective_value(ev, objective):
        return ev.jct_s if objective is Objective.MIN_JCT_GIVEN_BUDGET else ev.cost_usd

    @staticmethod
    def _spend_value(ev, objective):
        return ev.cost_usd if objective is Objective.MIN_JCT_GIVEN_BUDGET else ev.jct_s

    @staticmethod
    def _within_constraint(ev, objective, budget_usd, qos_s):
        ok = True
        if budget_usd is not None:
            ok = ok and ev.cost_usd <= budget_usd
        if qos_s is not None:
            ok = ok and ev.jct_s <= qos_s
        if objective is Objective.MIN_JCT_GIVEN_BUDGET and budget_usd is None:
            raise ConstraintError("JCT minimization needs budget_usd")
        if objective is Objective.MIN_COST_GIVEN_QOS and qos_s is None:
            raise ConstraintError("cost minimization needs qos_s")
        return ok

    def _marginal_benefit(self, cur, cand, objective):
        gain = self._objective_value(cur, objective) - self._objective_value(
            cand, objective
        )
        spend = self._spend_value(cand, objective) - self._spend_value(cur, objective)
        if gain <= 0:
            return -float("inf")
        if spend <= 0:
            return float("inf")
        return gain / spend

    def _recycle_benefit(self, cur, cand, objective):
        freed = self._spend_value(cur, objective) - self._spend_value(cand, objective)
        damage = self._objective_value(cand, objective) - self._objective_value(
            cur, objective
        )
        if freed <= 0:
            return -float("inf")
        return freed / max(damage, 1e-12)

    def plan(self, candidates, spec, objective, budget_usd=None, qos_s=None):
        stats = PlannerStats()
        ladder = sorted(candidates, key=lambda p: p.cost_usd)
        self._build_cache(ladder, spec)
        warm = optimal_static_plan(
            ladder, spec, objective, budget_usd=budget_usd, qos_s=qos_s
        )
        stats.candidates_evaluated += len(ladder)
        warm_ev = self._eval(warm, stats)
        feasible = self._within_constraint(warm_ev, objective, budget_usd, qos_s)
        best, best_ev = warm, warm_ev
        starts = (
            self._warm_starts(warm, ladder, spec, objective, budget_usd, qos_s, stats)
            if feasible
            else []
        )
        for start_plan in starts:
            ev = self._eval(start_plan, stats)
            cand, cand_ev = self._recycle_and_reinvest(
                start_plan, ev, ladder, objective, budget_usd, qos_s, stats
            )
            cand, cand_ev = self._spend_remainder(
                cand, cand_ev, ladder, objective, budget_usd, qos_s, stats
            )
            if self._objective_value(cand_ev, objective) < self._objective_value(
                best_ev, objective
            ):
                best, best_ev = cand, cand_ev
        return best, best_ev, warm_ev, stats, feasible

    def _warm_starts(self, warm, ladder, spec, objective, budget_usd, qos_s, stats):
        starts = [warm]
        seen = {tuple(p.allocation for p in warm.stages)}
        for point in ladder:
            plan = static_plan(point, spec)
            ev = self._eval(plan, stats)
            if not self._within_constraint(ev, objective, budget_usd, qos_s):
                continue
            key = tuple(p.allocation for p in plan.stages)
            if key not in seen:
                seen.add(key)
                starts.append(plan)
        return starts

    def _recycle_and_reinvest(
        self, best, best_ev, ladder, objective, budget_usd, qos_s, stats
    ):
        recycle_dir = -1 if objective is Objective.MIN_JCT_GIVEN_BUDGET else +1
        spend_cap = self._spend_value(best_ev, objective)
        for _ in range(64):
            stats.greedy_iterations += 1
            scored = []
            for stage_idx, cand in self._neighbors(best, ladder, recycle_dir):
                cev = self._eval(cand, stats)
                b = self._recycle_benefit(best_ev, cev, objective)
                if b > 0:
                    scored.append((b, stage_idx, cand, cev))
            if not scored:
                break
            _, recycled_stage, a_l, a_l_ev = max(scored, key=lambda s: s[0])
            exclude = {recycled_stage}
            while True:
                up_scored = []
                for _, cand in self._neighbors(a_l, ladder, -recycle_dir, exclude):
                    cev = self._eval(cand, stats)
                    if self._spend_value(cev, objective) > spend_cap:
                        continue
                    b = self._marginal_benefit(a_l_ev, cev, objective)
                    if b > 0:
                        up_scored.append((b, cand, cev))
                if not up_scored:
                    break
                _, a_l, a_l_ev = max(up_scored, key=lambda s: s[0])
            improvement = self._objective_value(best_ev, objective) - (
                self._objective_value(a_l_ev, objective)
            )
            if improvement <= self.delta * abs(self._objective_value(best_ev, objective)):
                break
            if not self._within_constraint(a_l_ev, objective, budget_usd, qos_s):
                break
            best, best_ev = a_l, a_l_ev
        return best, best_ev

    def _spend_remainder(
        self, best, best_ev, ladder, objective, budget_usd, qos_s, stats
    ):
        tabu = set()
        stats.greedy_iterations += 1
        for _ in range(512):
            scored = []
            for stage_idx in range(len(best.stages)):
                current = best.stages[stage_idx]
                for point in ladder:
                    if point.allocation == current.allocation:
                        continue
                    key = (stage_idx, point.allocation.describe())
                    if key in tabu:
                        continue
                    cand = best.replace_stage(stage_idx, point)
                    cev = self._eval(cand, stats)
                    if not self._within_constraint(
                        cev, objective, budget_usd, qos_s
                    ):
                        tabu.add(key)
                        continue
                    b = self._marginal_benefit(best_ev, cev, objective)
                    if b > 0:
                        scored.append((b, cand, cev))
            if not scored:
                break
            _, cand, cev = max(scored, key=lambda s: s[0])
            best, best_ev = cand, cev
            tabu.clear()
        return best, best_ev


class TestArrayPlannerMatchesScalar:
    @given(
        model=st.sampled_from(["lr-higgs", "mobilenet"]),
        trials=st.integers(8, 1024),
        eta=st.integers(2, 4),
        objective=st.sampled_from(list(Objective)),
        log2_mult=st.floats(-1.0, 6.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_plan_evaluation_and_counters(
        self, lr_profile, mobilenet_profile, model, trials, eta, objective, log2_mult
    ):
        """Bit-identical to the scalar planner, infeasible constraints too.

        The constraint is a multiple of the least any uniform plan needs
        (cheapest cost, resp. fastest JCT), so multiples below 1 are
        infeasible.
        """
        profile = lr_profile if model == "lr-higgs" else mobilenet_profile
        ladder = sorted(profile.pareto, key=lambda p: p.cost_usd)
        spec = SHASpec(trials, eta, 2)
        uniform = [evaluate_plan(static_plan(p, spec), spec) for p in ladder]
        if objective is Objective.MIN_JCT_GIVEN_BUDGET:
            kwargs = {"budget_usd": min(ev.cost_usd for ev in uniform) * 2**log2_mult}
        else:
            kwargs = {"qos_s": min(ev.jct_s for ev in uniform) * 2**log2_mult}
        res = GreedyHeuristicPlanner().plan(ladder, spec, objective, **kwargs)
        plan, ev, static_ev, stats, feasible = ScalarGreedyPlanner().plan(
            ladder, spec, objective, **kwargs
        )
        assert res.plan == plan
        assert res.evaluation == ev
        assert res.static_evaluation == static_ev
        assert res.feasible == feasible
        assert res.stats.candidates_evaluated == stats.candidates_evaluated
        assert res.stats.greedy_iterations == stats.greedy_iterations
