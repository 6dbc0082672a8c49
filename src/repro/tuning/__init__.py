"""Hyperparameter tuning: SHA/HyperBand/BOHB, partitioning, Algorithm 1."""

from repro.tuning.bohb import BOHBEngine, BOHBResult, BOHBRunner, TPESampler
from repro.tuning.exact import ExactResult, solve_exact
from repro.tuning.executor import TuningExecutor, TuningRunResult
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.hyperband import BracketSpec, HyperBandSpec
from repro.tuning.plan import Objective, PartitionPlan, PlanEvaluation, evaluate_plan
from repro.tuning.sha import SHAEngine, SHASpec, Trial
from repro.tuning.static_planner import (
    even_budget_plan,
    optimal_static_plan,
    static_plan,
)

__all__ = [
    "BOHBEngine",
    "BOHBResult",
    "BOHBRunner",
    "BracketSpec",
    "ExactResult",
    "GreedyHeuristicPlanner",
    "HyperBandSpec",
    "Objective",
    "PartitionPlan",
    "PlanEvaluation",
    "SHAEngine",
    "SHASpec",
    "TPESampler",
    "Trial",
    "TuningExecutor",
    "TuningRunResult",
    "evaluate_plan",
    "even_budget_plan",
    "optimal_static_plan",
    "solve_exact",
    "static_plan",
]
