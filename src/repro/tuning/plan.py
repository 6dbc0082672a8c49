"""Resource-partitioning plans for hyperparameter tuning (paper §III-C).

A plan assigns one allocation θ_i (a point on the Pareto boundary 𝒫) to
every SHA stage. Its predicted JCT and cost follow Eq. (7)-(8):

* ``T_h(a) = Σ_i r_i * t'(θ_i) * waves_i`` — stage durations are serial;
  ``waves_i = ceil(q_i * n_i / C)`` accounts for the account concurrency
  limit C forcing trials to queue in waves when a stage demands more
  functions than the platform grants.
* ``C_h(a) = Σ_i q_i * r_i * c'(θ_i)`` — every trial of every stage pays
  its per-epoch cost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.analytical.pareto import ProfiledAllocation
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.tuning.sha import SHASpec, StageShape


class Objective(enum.Enum):
    """What the planner optimizes (the other dimension is the constraint)."""

    MIN_JCT_GIVEN_BUDGET = "min_jct"
    MIN_COST_GIVEN_QOS = "min_cost"


@dataclass(frozen=True, slots=True)
class PartitionPlan:
    """One allocation per SHA stage."""

    stages: tuple[ProfiledAllocation, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValidationError("a plan needs at least one stage")

    def replace_stage(self, index: int, point: ProfiledAllocation) -> "PartitionPlan":
        """A copy with stage ``index`` reassigned to ``point``."""
        stages = list(self.stages)
        stages[index] = point
        return PartitionPlan(tuple(stages))

    @staticmethod
    def uniform(point: ProfiledAllocation, n_stages: int) -> "PartitionPlan":
        """A static plan: the same allocation for every stage."""
        return PartitionPlan(tuple([point] * n_stages))


@dataclass(frozen=True, slots=True)
class PlanEvaluation:
    """Predicted JCT and cost of a plan under a given SHA spec."""

    jct_s: float
    cost_usd: float
    stage_jct_s: tuple[float, ...]
    stage_cost_usd: tuple[float, ...]


def stage_waves(
    q_trials: int, n_functions: int, platform: PlatformConfig = DEFAULT_PLATFORM
) -> int:
    """Execution waves forced by the account concurrency limit."""
    demanded = q_trials * n_functions
    return max(1, math.ceil(demanded / platform.limits.max_concurrency))


def stage_terms(
    q_trials: int,
    epochs: int,
    point: ProfiledAllocation,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> tuple[float, float]:
    """One stage's Eq. (7) time term and Eq. (8) cost term under ``point``."""
    waves = stage_waves(q_trials, point.allocation.n_functions, platform)
    return epochs * point.time_s * waves, q_trials * epochs * point.cost_usd


def stage_sum(terms):
    """Σ over stages, added one stage at a time in stage order.

    Spelled out rather than ``sum()`` because Python 3.12's ``sum``
    compensates float rounding: the planner scores candidates with
    array-wide adds in this same order (``tuning.greedy_planner``), and
    its totals must equal this function's to the last bit. ``terms`` may
    also iterate over arrays, which are then summed elementwise.
    """
    total = 0.0
    for term in terms:
        total = total + term
    return total


def evaluate_plan(
    plan: PartitionPlan,
    spec: StageShape,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> PlanEvaluation:
    """Predicted JCT/cost of ``plan`` — Eq. (7) objective and (8) cost."""
    if len(plan.stages) != spec.n_stages:
        raise ValidationError(
            f"plan has {len(plan.stages)} stages, SHA spec needs {spec.n_stages}"
        )
    stage_jct = []
    stage_cost = []
    for i, point in enumerate(plan.stages):
        jct, cost = stage_terms(
            spec.trials_in_stage(i), spec.epochs_in_stage(i), point, platform
        )
        stage_jct.append(jct)
        stage_cost.append(cost)
    return PlanEvaluation(
        jct_s=stage_sum(stage_jct),
        cost_usd=stage_sum(stage_cost),
        stage_jct_s=tuple(stage_jct),
        stage_cost_usd=tuple(stage_cost),
    )
