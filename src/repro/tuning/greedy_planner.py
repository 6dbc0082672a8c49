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
as a (stage × candidate) array. The starts are refined in lockstep: their
plans are the rows of one (B × n_stages) index array, and each phase-1
step scores the one-step moves of every row still refining, and each
phase-2 round all n × L replacements of every such row, in one array
pass. A row's direction and skipped stage come from its own state
(recycling, or reinvesting after recycling stage i), and a row leaves
the batch exactly where a start refined on its own would stop: no move
left, an improvement of at most δ or an infeasible plan, or the round cap
of its phase. The first strict minimum over the rows, in start order,
wins. Starts are independent, so they are refined in batches of at most
``MAX_BATCH_ROWS`` rows: every Pareto ladder fits in one, and a WO-pa
ladder's working set stays a few MB. Candidate totals are added stage by
stage in the order :func:`~repro.tuning.plan.stage_sum` adds a plan's own
total, and each pick is the first maximum in stage-major ladder order,
which keeps every comparison — and so every chosen plan and counter —
bit-identical to evaluating the candidate plans one by one, start after
start.

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

# Starts refined together in one batch. Every Pareto ladder (a few dozen
# points) fits in one; a WO-pa ladder (hundreds of starts × 576 points) is
# split into batches of this many rows, which keeps phase 2's
# (2 × rows × n × L) candidate totals to a few MB.
MAX_BATCH_ROWS = 40

# Round caps: a start stops after this many recycle-and-reinvest rounds
# (phase 1) and this many spend-remainder moves (phase 2). Both bound the
# loops; the catalogue's ladders converge long before either.
MAX_RECYCLE_ROUNDS = 64
MAX_SPEND_ROUNDS = 512


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

    def _totals(self, x: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """(JCT, cost) totals of each row of ``x`` with stage i replaced by ``cand``.

        ``x`` is (B, n) ladder indices. ``cand`` is (2, B, n) for one move
        per stage of each row, or (2, 1, n, L) for every move of every row;
        the result has ``cand``'s shape broadcast over the B rows. Each
        total is ((a_0 + a_1) + … + cand_i) + … + a_{n-1}, the order
        :func:`stage_sum` adds the candidate plan's own total in: the
        prefix before stage i is a running sum, and the stages after it
        are added one at a time.
        """
        extra = (None,) * (cand.ndim - 3)
        own = self._terms[:, self._stages, x]
        tot = np.broadcast_to(cand, own.shape + cand.shape[3:]).copy()
        # np.cumsum accumulates in order: element i is (a_0 + … + a_i).
        tot[:, :, 1:] += np.cumsum(own, axis=2)[(..., slice(None, -1), *extra)]
        for k in range(1, own.shape[2]):
            tot[:, :, :k] += own[(..., slice(k, k + 1), *extra)]
        return tot

    def _total(self, x: np.ndarray) -> np.ndarray:
        """(JCT, cost) totals of the plans ``x``: (2,) for one, (2, B) for B rows."""
        return stage_sum(np.moveaxis(self._terms[:, self._stages, x], -1, 0))

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

        ``cur`` holds each row's (2, B) totals and ``tot`` its candidates'.
        Returns the benefit and the mask of moves that improve the
        objective with a positive benefit. Moves that improve the
        objective *and* reduce spend (possible via concurrency-wave
        effects) get an infinite benefit — always take them first.
        """
        o, s = self._obj, 1 - self._obj
        cur = cur.reshape(cur.shape + (1,) * (tot.ndim - cur.ndim))
        gain = cur[o] - tot[o]
        spend = tot[s] - cur[s]
        benefit = np.divide(gain, spend, out=np.full_like(gain, math.inf), where=spend > 0)
        return benefit, (gain > 0) & (benefit > 0)

    @staticmethod
    def _first_best(benefit: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the flat index of the first maximum benefit among ``ok``
        moves, and whether the row has any ``ok`` move at all."""
        rows = len(ok)
        k = np.where(ok, benefit, -math.inf).reshape(rows, -1).argmax(axis=1)
        return k, ok.reshape(rows, -1)[np.arange(rows), k]

    def _step(
        self, x: np.ndarray, direction: np.ndarray, skip: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Totals of the one-step ladder moves x[b, i] → x[b, i] + direction[b].

        ``+1`` moves a stage to the next more expensive (faster) point,
        ``-1`` to the next cheaper one. Returns the (2, B, n) totals and
        the mask of the moves that exist, stage ``skip[b]`` excluded
        (``-1`` excludes none).
        """
        n_points = self._terms.shape[2]
        to = x + direction[:, None]
        moves = (to >= 0) & (to < n_points) & (self._stages != skip[:, None])
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
                starts = self._warm_starts(w, stats) if feasible else np.empty(0, int)
                ph.add("candidates_evaluated", stats.candidates_evaluated)

            # Starts are independent, so they are refined in chunks; the
            # first strict minimum in start order wins, as if each start
            # were refined and compared in turn.
            for chunk in range(0, len(starts), MAX_BATCH_ROWS):
                x = np.repeat(starts[chunk:chunk + MAX_BATCH_ROWS, None], spec.n_stages, 1)
                x, tot = self._improve(x, stats)
                b = int(np.argmin(tot[self._obj]))
                if tot[self._obj, b] < best_tot[self._obj]:
                    best, best_tot = x[b], tot[:, b]
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

    def _warm_starts(self, w: int, stats: PlannerStats) -> np.ndarray:
        """Ladder indices of every feasible uniform plan, warm start first.

        Greedy refinement is a local search; multi-starting it from each
        point of 𝒫 (a few dozen starts, refined together) closes most of
        the optimality gap against the exact DP at a cost that is still a
        small fraction of one cold start."""
        stats.candidates_evaluated += self._terms.shape[2]
        ok = self._feasible(stage_sum(self._terms.swapaxes(0, 1)))
        ok[w] = False
        return np.concatenate(([w], np.flatnonzero(ok)))

    def _improve(
        self, x: np.ndarray, stats: PlannerStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both refinement phases for every row of ``x``: (plans, totals)."""
        # Counter deltas credit each refinement phase with exactly the plan
        # evaluations it performed, so the per-frame "candidates_evaluated"
        # counters sum to stats.candidates_evaluated.
        with profile_phase("planner/recycle_reinvest") as ph:
            before = stats.candidates_evaluated
            stats.candidates_evaluated += len(x)
            x, tot = self._recycle_and_reinvest(x, self._total(x), stats)
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
        best, best_tot = best.copy(), best_tot.copy()
        # Each row steps from a_l: its best plan while it recycles, and
        # that plan with stage `recycled` moved while it reinvests.
        a_l, a_l_tot = best.copy(), best_tot.copy()
        spend_cap = best_tot[s].copy()
        recycled = np.full(len(best), -1)
        rounds = np.zeros(len(best), dtype=int)
        active = np.ones(len(best), dtype=bool)
        while active.any():
            recycling = recycled < 0
            starting = recycling & active
            stats.greedy_iterations += int(np.count_nonzero(starting))
            rounds += starting
            direction = np.where(recycling, recycle_dir, -recycle_dir)
            tot, ok = self._step(a_l, direction, recycled)
            ok &= active[:, None]
            stats.candidates_evaluated += int(np.count_nonzero(ok))
            # A recycling row scores the spend freed per unit of objective
            # damage (the recycling metric); a reinvesting row the Eq.
            # (10)/(12) benefit of the moves that keep its start's spend.
            freed = a_l_tot[s, :, None] - tot[s]
            recycle = freed / np.maximum(tot[o] - a_l_tot[o, :, None], 1e-12)
            reinvest, improving = self._benefit(a_l_tot, tot)
            ok &= np.where(
                recycling[:, None],
                (freed > 0) & (recycle > 0),
                improving & (tot[s] <= spend_cap[:, None]),
            )
            k, found = self._first_best(
                np.where(recycling[:, None], recycle, reinvest), ok
            )
            moved = np.flatnonzero(found)
            a_l[moved, k[moved]] += direction[moved]
            a_l_tot[:, moved] = tot[:, moved, k[moved]]
            started = found & recycling
            recycled[started] = k[started]
            # A reinvesting row with no move left ends its round: it keeps
            # a_l when a_l improves on its best by more than δ and is
            # feasible, and starts the next round by recycling again.
            ended = active & ~found & ~recycling
            improvement = best_tot[o] - a_l_tot[o]
            kept = ended & (improvement > self.delta * np.abs(best_tot[o]))
            kept &= self._feasible(a_l_tot)
            best[kept] = a_l[kept]
            best_tot[:, kept] = a_l_tot[:, kept]
            recycled[ended] = -1
            # A row stops when recycling finds no move, when a round is not
            # kept, or after its MAX_RECYCLE_ROUNDS-th round.
            active &= found | (kept & (rounds < MAX_RECYCLE_ROUNDS))
        return best, best_tot

    # -- phase 2: spend the remaining headroom (Alg. 1 lines 15-25) ----------
    def _spend_remainder(
        self, best: np.ndarray, best_tot: np.ndarray, stats: PlannerStats
    ) -> tuple[np.ndarray, np.ndarray]:
        # Phase 2 counts as one estimation round per row.
        stats.greedy_iterations += len(best)
        n, n_points = self._terms.shape[1:]
        best, best_tot = best.copy(), best_tot.copy()
        live = np.arange(len(best))
        x, x_tot = best.copy(), best_tot.copy()
        everything = self._terms[:, None]
        for _ in range(MAX_SPEND_ROUNDS):
            # Phase 2 considers *every* (stage, candidate) replacement, not
            # just ladder neighbours: the boundary has cliffs (e.g. the
            # cheap DynamoDB tail vs the fast VM-PS cluster) that one-step
            # moves cannot cross, and the knapsack optimum routinely jumps
            # them. Moves that would break the constraint are masked (A2').
            stats.candidates_evaluated += live.size * n * (n_points - 1)
            tot = self._totals(x, everything)
            benefit, ok = self._benefit(x_tot, tot)
            ok &= self._feasible(tot)
            rows = np.arange(live.size)
            ok[rows[:, None], self._stages, x] = False
            k, found = self._first_best(benefit, ok)
            # Individual moves can be small, so phase 2 runs until no
            # strictly improving feasible move remains (δ governs the
            # coarser phase-1 rounds).
            i, j = np.divmod(k, n_points)
            x[rows[found], i[found]] = j[found]
            x_tot[:, found] = tot[:, rows[found], i[found], j[found]]
            if not found.all():
                done = ~found
                best[live[done]] = x[done]
                best_tot[:, live[done]] = x_tot[:, done]
                live, x, x_tot = live[found], x[found], x_tot[:, found]
                if not live.size:
                    break
        best[live] = x
        best_tot[:, live] = x_tot
        return best, best_tot
