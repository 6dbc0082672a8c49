"""Pareto-boundary extraction over the (time, cost) allocation space.

Paper §III-B.3 / Fig. 7: an allocation θ2 is *dominated* when some θ1 is
both faster and cheaper. CE-scaling restricts every search to the Pareto
subset 𝒫, which shrinks the planner's candidate set from hundreds of points
to a few dozen (the Fig. 21 overhead reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.common.types import Allocation, EpochCostBreakdown, EpochTimeBreakdown


@dataclass(frozen=True, slots=True)
class ProfiledAllocation:
    """An allocation with its estimated per-epoch time and cost."""

    allocation: Allocation
    time: EpochTimeBreakdown
    cost: EpochCostBreakdown

    @property
    def time_s(self) -> float:
        return self.time.total_s

    @property
    def cost_usd(self) -> float:
        return self.cost.total_usd


def pareto_front(points: Iterable[ProfiledAllocation]) -> list[ProfiledAllocation]:
    """The Pareto-optimal subset minimizing (time, cost), sorted by time.

    A point survives if no other point is <= in both dimensions and < in at
    least one; of duplicated (time, cost) pairs only the first survives.

    O(n log n): sort by (time, cost) ascending, keep points whose cost is a
    new running minimum.
    """
    items = sorted(points, key=lambda p: (p.time_s, p.cost_usd))
    front: list[ProfiledAllocation] = []
    best_cost = float("inf")
    for p in items:
        if p.cost_usd < best_cost:
            front.append(p)
            best_cost = p.cost_usd
    return front


def is_dominated(p: ProfiledAllocation, others: Iterable[ProfiledAllocation]) -> bool:
    """True if some other point is at least as good in both dimensions and
    strictly better in one."""
    for q in others:
        if q is p:
            continue
        if (
            q.time_s <= p.time_s
            and q.cost_usd <= p.cost_usd
            and (q.time_s < p.time_s or q.cost_usd < p.cost_usd)
        ):
            return True
    return False
