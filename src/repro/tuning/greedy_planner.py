"""Algorithm 1 — the greedy heuristic resource-partitioning planner.

The multiple-choice-knapsack formulation (Eq. 7-9 / 11) is NP-hard, so the
planner improves the optimal *static* plan greedily. With the objective O
(JCT for JCT-min-given-budget, cost for cost-min-given-QoS) and the traded
dimension S (cost resp. time):

1. **Warm start** — the best uniform plan over 𝒫 under the constraint;
   refinement is additionally multi-started from *every* feasible uniform
   plan (the paper's Remark only requires "no worse than static"; with the
   precomputed stage-contribution cache the extra starts cost microseconds
   and close most of the gap to the exact DP — see
   ``benchmarks/test_ablation_planner.py``).
2. **Recycle & reinvest** (Alg. 1 lines 2-14) — pick the single-stage move
   in the *S-freeing* direction with the best S freed per unit of O damage
   (recycling; for JCT-min this downgrades a stage to a cheaper point —
   early stages, whose q_i is large, win by construction), then repeatedly
   apply the *O-improving* move with the best marginal benefit (Eq. 10/12)
   while total S stays within the warm-start plan's spend. The recycled
   stage is excluded from reinvestment within the round so a round cannot
   simply undo itself.
3. **Spend the remainder** (lines 15-25) — keep applying the best
   O-improving moves (either ladder direction — concurrency waves make
   stage time non-monotone along 𝒫) until the constraint binds or
   improvements fall below δ; each round masks out the moves that would
   violate the constraint (the paper's A2') before taking the best one.

A plan is held as a vector of ladder indices and the stage contributions
as a (stage × candidate) array, so each round scores all of its candidate
moves in one array pass. Candidate totals are added stage by stage in the
order :func:`~repro.tuning.plan.stage_sum` adds a plan's own total, which
keeps every comparison — and so every chosen plan — bit-identical to
evaluating the candidate plans one by one.

Planner instrumentation (candidates evaluated, wall time) feeds the
scheduling-overhead experiment (Fig. 21a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConstraintError
from repro.analytical.pareto import ProfiledAllocation
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.profiling import profile_phase
from repro.profiling.clock import host_clock_s
from repro.tuning.plan import (
    Objective,
    PartitionPlan,
    PlanEvaluation,
    stage_sum,
    stage_terms,
)
from repro.tuning.sha import SHASpec
from repro.tuning.static_planner import optimal_static_plan
from repro.telemetry import get_registry
from repro.slo.events import get_event_bus


@dataclass
class PlannerStats:
    """Instrumentation for the scheduling-overhead experiment (Fig. 21a)."""

    candidates_evaluated: int = 0
    greedy_iterations: int = 0
    wall_time_s: float = 0.0


@dataclass
class PlannerResult:
    """A plan plus its predicted evaluation and instrumentation."""

    plan: PartitionPlan
    evaluation: PlanEvaluation
    static_evaluation: PlanEvaluation
    stats: PlannerStats
    feasible: bool = True


@dataclass
class GreedyHeuristicPlanner:
    """Plans per-stage allocations for SHA under a budget or QoS constraint.

    Attributes:
        delta: minimum relative objective improvement to keep iterating —
            the paper's stopping threshold δ.
        platform: platform config used to evaluate plans.
    """

    delta: float = 0.001
    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)

    # ------------------------------------------------------------------ helpers
    def _build_cache(self, ladder: list[ProfiledAllocation], spec: SHASpec) -> None:
        """Precompute each (stage, candidate)'s JCT/cost contribution.

        A stage's contribution depends only on its own allocation, so plan
        evaluation reduces to a sum of lookups. ``self._terms[0]`` is the
        (n_stages × L) JCT array J and ``self._terms[1]`` the cost array C;
        stacking them lets one array operation update both totals.
        """
        terms = np.empty((2, spec.n_stages, len(ladder)))
        for i in range(spec.n_stages):
            q, r = spec.trials_in_stage(i), spec.epochs_in_stage(i)
            for j, point in enumerate(ladder):
                terms[:, i, j] = stage_terms(q, r, point, self.platform)
        self._terms = terms
        self._stages = np.arange(spec.n_stages)
        # [k, 0, i]: stage k of the plan that moves stage i is the moved one.
        self._diagonal = np.eye(spec.n_stages, dtype=bool)[:, None, :]

    def _totals(self, x: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """(JCT, cost) totals of plan ``x`` with stage i replaced by ``cand[:, i]``.

        ``cand`` is (2, n) for one move per stage or (2, n, L) for every
        move. The candidate plans' stage terms are laid out stage-first and
        added by :func:`stage_sum`, so each total is
        ((a_0 + a_1) + … + cand_i) + … + a_{n-1}, bit-identical to the
        candidate plan's own total (``np.sum``'s pairwise order is not).
        """
        pad = (1,) * (cand.ndim - 2)
        own = self._terms[:, self._stages, x].T[:, :, None]
        moved = self._diagonal.reshape(self._diagonal.shape + pad)
        return stage_sum(np.where(moved, cand, own.reshape(own.shape + pad)))

    def _total(self, x: np.ndarray) -> np.ndarray:
        """(JCT, cost) totals of plan ``x``."""
        return stage_sum(self._terms[:, self._stages, x].T)

    def _feasible(self, tot: np.ndarray) -> np.ndarray:
        """The constraint on (JCT, cost) totals of any shape."""
        return (tot[0] <= self._qos_s) & (tot[1] <= self._budget_usd)

    def _evaluation(self, x: np.ndarray) -> PlanEvaluation:
        jct, cost = self._terms[:, self._stages, x].tolist()
        return PlanEvaluation(
            jct_s=stage_sum(jct),
            cost_usd=stage_sum(cost),
            stage_jct_s=tuple(jct),
            stage_cost_usd=tuple(cost),
        )

    def _benefit(
        self, cur: np.ndarray, tot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (10)/(12): objective improvement per unit of extra spend.

        Returns the benefit and the mask of moves that improve the
        objective with a positive benefit. Moves that improve the
        objective *and* reduce spend (possible via concurrency-wave
        effects) get an infinite benefit — always take them first.
        """
        o, s = self._obj, 1 - self._obj
        gain = cur[o] - tot[o]
        spend = tot[s] - cur[s]
        benefit = np.divide(gain, spend, out=np.full_like(gain, math.inf), where=spend > 0)
        return benefit, (gain > 0) & (benefit > 0)

    @staticmethod
    def _first_best(benefit: np.ndarray, ok: np.ndarray) -> int | None:
        """Flat index of the first maximum benefit among ``ok`` moves."""
        k = int(np.argmax(np.where(ok, benefit, -math.inf)))
        return k if ok.flat[k] else None

    def _step(self, x: np.ndarray, direction: int, skip: int | None = None):
        """Totals of the one-step ladder moves x_i → x_i + direction.

        ``direction=+1`` moves a stage to the next more expensive (faster)
        point, ``-1`` to the next cheaper one. Returns the totals and the
        mask of the moves that exist (stage ``skip`` excluded).
        """
        n_points = self._terms.shape[2]
        to = x + direction
        moves = (to >= 0) & (to < n_points)
        if skip is not None:
            moves[skip] = False
        # Off-ladder moves wrap to a valid index; the mask drops them.
        cand = self._terms[:, self._stages, to % n_points]
        return self._totals(x, cand), moves

    # ------------------------------------------------------------------ planning
    def plan(
        self,
        candidates: list[ProfiledAllocation],
        spec: SHASpec,
        objective: Objective,
        budget_usd: float | None = None,
        qos_s: float | None = None,
    ) -> PlannerResult:
        """Run Algorithm 1 and return the partitioning plan.

        When no static plan satisfies the constraint, the closest-to-
        feasible static plan is returned with ``feasible=False``.
        """
        if objective is Objective.MIN_JCT_GIVEN_BUDGET and budget_usd is None:
            raise ConstraintError("JCT minimization needs budget_usd")
        if objective is Objective.MIN_COST_GIVEN_QOS and qos_s is None:
            raise ConstraintError("cost minimization needs qos_s")
        # Row of the objective O in the (JCT, cost) terms; 1 - _obj is S.
        self._obj = 0 if objective is Objective.MIN_JCT_GIVEN_BUDGET else 1
        self._budget_usd = math.inf if budget_usd is None else budget_usd
        self._qos_s = math.inf if qos_s is None else qos_s
        start = host_clock_s()
        stats = PlannerStats()
        with profile_phase("planner/plan"):
            ladder = sorted(candidates, key=lambda p: p.cost_usd)
            with profile_phase("planner/build_cache"):
                self._build_cache(ladder, spec)
            registry = get_registry()

            with profile_phase("planner/warm_start") as ph:
                warm = optimal_static_plan(
                    ladder, spec, objective, budget_usd=budget_usd, qos_s=qos_s,
                    platform=self.platform,
                )
                # The warm start enumerates every candidate as a uniform plan;
                # account for those evaluations (they dominate WO-pa's
                # overhead), plus the warm plan's own.
                stats.candidates_evaluated += len(ladder) + 1
                w = ladder.index(warm.stages[0])
                best = np.full(spec.n_stages, w)
                best_tot = self._total(best)
                feasible = bool(self._feasible(best_tot))
                starts = self._warm_starts(w, stats) if feasible else []
                ph.add("candidates_evaluated", stats.candidates_evaluated)

            for j in starts:
                x, tot = self._improve(np.full(spec.n_stages, j), stats)
                if tot[self._obj] < best_tot[self._obj]:
                    best, best_tot = x, tot
        best_plan = PartitionPlan(tuple(ladder[j] for j in best.tolist()))
        best_ev = self._evaluation(best)
        stats.wall_time_s = host_clock_s() - start
        registry.counter(
            "repro_planner_candidates_evaluated_total",
            "Plan evaluations performed by the knapsack heuristic",
        ).inc(stats.candidates_evaluated)
        registry.counter(
            "repro_planner_greedy_iterations_total",
            "Recycle/reinvest and spend-remainder rounds",
        ).inc(stats.greedy_iterations)
        registry.histogram(
            "repro_planner_wall_seconds",
            "Host wall-clock time per planning pass",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        ).observe(stats.wall_time_s)
        bus = get_event_bus()
        if bus.enabled:
            bus.emit(
                "plan_chosen", 0.0, scope="tune",
                n_stages=len(best_plan.stages),
                predicted_jct_s=best_ev.jct_s,
                predicted_cost_usd=best_ev.cost_usd,
                feasible=feasible,
                candidates_evaluated=stats.candidates_evaluated,
            )
        return PlannerResult(
            plan=best_plan,
            evaluation=best_ev,
            static_evaluation=self._evaluation(np.full(spec.n_stages, w)),
            stats=stats,
            feasible=feasible,
        )

    def _warm_starts(self, w: int, stats: PlannerStats) -> list[int]:
        """Ladder indices of every feasible uniform plan, warm start first.

        Greedy refinement is a local search; multi-starting it from each
        point of 𝒫 (a few dozen starts, each refining in microseconds)
        closes most of the optimality gap against the exact DP at a cost
        that is still a small fraction of one cold start."""
        stats.candidates_evaluated += self._terms.shape[2]
        ok = self._feasible(stage_sum(self._terms.swapaxes(0, 1)))
        ok[w] = False
        return [w, *np.flatnonzero(ok).tolist()]

    def _improve(
        self, x: np.ndarray, stats: PlannerStats
    ) -> tuple[np.ndarray, np.ndarray]:
        # Counter deltas credit each refinement phase with exactly the plan
        # evaluations it performed, so the per-frame "candidates_evaluated"
        # counters sum to stats.candidates_evaluated.
        with profile_phase("planner/recycle_reinvest") as ph:
            before = stats.candidates_evaluated
            stats.candidates_evaluated += 1
            tot = self._total(x)
            x, tot = self._recycle_and_reinvest(x, tot, stats)
            ph.add("candidates_evaluated", stats.candidates_evaluated - before)
        with profile_phase("planner/spend_remainder") as ph:
            before = stats.candidates_evaluated
            result = self._spend_remainder(x, tot, stats)
            ph.add("candidates_evaluated", stats.candidates_evaluated - before)
        return result

    # -- phase 1: recycle & reinvest (Alg. 1 lines 2-14) ---------------------
    def _recycle_and_reinvest(
        self, best: np.ndarray, best_tot: np.ndarray, stats: PlannerStats
    ) -> tuple[np.ndarray, np.ndarray]:
        # Recycling frees the traded dimension S: cheaper points for
        # JCT-min (direction -1), faster points for cost-min (+1).
        o, s = self._obj, 1 - self._obj
        recycle_dir = -1 if o == 0 else +1
        spend_cap = best_tot[s]
        for _ in range(64):  # bounded outer loop; converges much earlier
            stats.greedy_iterations += 1
            tot, ok = self._step(best, recycle_dir)
            stats.candidates_evaluated += int(np.count_nonzero(ok))
            # Spend freed per unit of objective damage (the recycling metric).
            freed = best_tot[s] - tot[s]
            benefit = freed / np.maximum(tot[o] - best_tot[o], 1e-12)
            recycled = self._first_best(benefit, ok & (freed > 0) & (benefit > 0))
            if recycled is None:
                break
            a_l, a_l_tot = best.copy(), tot[:, recycled]
            a_l[recycled] += recycle_dir
            while True:
                tot, ok = self._step(a_l, -recycle_dir, skip=recycled)
                stats.candidates_evaluated += int(np.count_nonzero(ok))
                benefit, improving = self._benefit(a_l_tot, tot)
                k = self._first_best(benefit, ok & improving & (tot[s] <= spend_cap))
                if k is None:
                    break
                a_l[k] -= recycle_dir
                a_l_tot = tot[:, k]
            improvement = best_tot[o] - a_l_tot[o]
            if improvement <= self.delta * abs(best_tot[o]):
                break
            if not self._feasible(a_l_tot):
                break
            best, best_tot = a_l, a_l_tot
        return best, best_tot

    # -- phase 2: spend the remaining headroom (Alg. 1 lines 15-25) ----------
    def _spend_remainder(
        self, best: np.ndarray, best_tot: np.ndarray, stats: PlannerStats
    ) -> tuple[np.ndarray, np.ndarray]:
        stats.greedy_iterations += 1  # phase 2 counts as one estimation round
        n, n_points = self._terms.shape[1:]
        for _ in range(512):
            # Phase 2 considers *every* (stage, candidate) replacement, not
            # just ladder neighbours: the boundary has cliffs (e.g. the
            # cheap DynamoDB tail vs the fast VM-PS cluster) that one-step
            # moves cannot cross, and the knapsack optimum routinely jumps
            # them. Moves that would break the constraint are masked (A2').
            stats.candidates_evaluated += n * (n_points - 1)
            tot = self._totals(best, self._terms)
            benefit, ok = self._benefit(best_tot, tot)
            ok &= self._feasible(tot)
            ok[self._stages, best] = False
            k = self._first_best(benefit, ok)
            if k is None:
                break
            # Individual moves can be small, so phase 2 runs until no
            # strictly improving feasible move remains (δ governs the
            # coarser phase-1 rounds).
            i, j = divmod(k, n_points)
            best[i] = j
            best_tot = tot[:, i, j]
        return best, best_tot
