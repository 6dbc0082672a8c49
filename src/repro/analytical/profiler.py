"""The Pareto profiler (paper Fig. 6, §III-B).

Given a workload, evaluates the analytical time/cost models over the
allocation space and extracts the Pareto boundary 𝒫. The profile is a
table: Eq. (2)-(5) are evaluated as columns over the whole grid in one
array pass, and only the points a caller reads (𝒫, a storage's own front,
or ``all_points`` on demand) become :class:`ProfiledAllocation` objects.
The profiler records how many points it evaluated and how long profiling
took, which feeds the scheduling-overhead experiment (Fig. 21: CE-scaling
vs WO-pa).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.common.errors import InfeasibleAllocationError
from repro.common.types import (
    Allocation,
    EpochCostBreakdown,
    EpochTimeBreakdown,
    StorageKind,
)
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.costmodel import epoch_cost_grid
from repro.analytical.pareto import ProfiledAllocation
from repro.analytical.space import AllocationSpace, default_space
from repro.analytical.timemodel import epoch_time_grid, feasible_grid
from repro.ml.models import Workload
from repro.profiling import profile_phase
from repro.profiling.clock import host_clock_s
from repro.telemetry import get_registry


def _front_order(time_s: np.ndarray, cost_usd: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The indices of :func:`~repro.analytical.pareto.pareto_front` over the
    points ``idx``, fastest first: a stable sort on (time, cost) that keeps
    each point whose cost is a strict new running minimum."""
    order = idx[np.lexsort((cost_usd[idx], time_s[idx]))]
    cost = cost_usd[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = cost[1:] < np.minimum.accumulate(cost)[:-1]
    return order[keep]


@dataclass(eq=False)
class ProfileResult:
    """Output of one profiling pass: the grid as a table, plus 𝒫.

    Every column is flat, one row per grid point in
    :meth:`AllocationSpace.enumerate` order; rows where ``feasible`` is
    False hold finite values that mean nothing.

    Attributes:
        storage, n, m: the allocation of each row (storage is an object
            column of :class:`StorageKind`).
        load_s, compute_s, sync_s: Eq. (2)-(3)'s time components.
        invocation_usd, compute_usd, storage_usd: Eq. (4)-(5)'s cost
            components.
        time_s, cost_usd: their totals.
        feasible: the rows that break no hard limit.
        evaluated: number of grid points considered (incl. infeasible).
        pareto: the Pareto subset 𝒫, sorted fastest-first (every feasible
            point, fastest first, under WO-pa).
        profile_time_s: wall-clock profiling time.
    """

    storage: np.ndarray
    n: np.ndarray
    m: np.ndarray
    load_s: np.ndarray
    compute_s: np.ndarray
    sync_s: np.ndarray
    invocation_usd: np.ndarray
    compute_usd: np.ndarray
    storage_usd: np.ndarray
    time_s: np.ndarray
    cost_usd: np.ndarray
    feasible: np.ndarray
    evaluated: int
    pareto: list[ProfiledAllocation] = field(default_factory=list)
    profile_time_s: float = 0.0
    # Row -> its object, so 𝒫, front() and all_points share objects.
    _objects: dict[int, ProfiledAllocation] = field(default_factory=dict, repr=False)

    @property
    def candidates(self) -> list[ProfiledAllocation]:
        """Planner-facing candidate set (𝒫)."""
        return self.pareto

    @cached_property
    def all_points(self) -> list[ProfiledAllocation]:
        """Every feasible allocation with its (time, cost), in grid order."""
        return self._points(np.flatnonzero(self.feasible))

    def front(self, storage: StorageKind) -> list[ProfiledAllocation]:
        """The Pareto front of one storage's feasible points, fastest first
        (empty when that storage has none): a storage-pinned baseline's
        candidates, since a pinned storage may be dominated on 𝒫."""
        idx = np.flatnonzero(self.feasible & (self.storage == storage))
        return self._points(_front_order(self.time_s, self.cost_usd, idx))

    def cheapest(self) -> ProfiledAllocation:
        """The minimum-cost point on 𝒫 (slowest end of the boundary)."""
        return min(self.pareto, key=lambda p: p.cost_usd)

    def fastest(self) -> ProfiledAllocation:
        """The minimum-time point on 𝒫 (most expensive end)."""
        return min(self.pareto, key=lambda p: p.time_s)

    def _points(self, rows: np.ndarray) -> list[ProfiledAllocation]:
        """The objects of ``rows``, built once per row."""
        objects = self._objects
        rows = rows.tolist()
        new = np.array([i for i in rows if i not in objects], dtype=np.intp)
        for i, s, n, m, load, compute, sync, inv, fn, st in zip(
            new.tolist(),
            *(column[new].tolist() for column in (
                self.storage, self.n, self.m, self.load_s, self.compute_s,
                self.sync_s, self.invocation_usd, self.compute_usd,
                self.storage_usd,
            )),
        ):
            objects[i] = ProfiledAllocation(
                allocation=Allocation(n_functions=n, memory_mb=m, storage=s),
                time=EpochTimeBreakdown(load_s=load, compute_s=compute, sync_s=sync),
                cost=EpochCostBreakdown(
                    invocation_usd=inv, compute_usd=fn, storage_usd=st
                ),
            )
        return [objects[i] for i in rows]


@dataclass
class ParetoProfiler:
    """Profiles a workload's allocation space and extracts 𝒫.

    Setting ``use_pareto=False`` reproduces the paper's WO-pa ablation: the
    planner then searches all feasible points instead of the boundary.
    """

    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    space: AllocationSpace = field(default_factory=default_space)
    use_pareto: bool = True

    def require_feasible(self, workload: Workload) -> np.ndarray:
        """The space's feasibility mask for ``workload``.

        Raises :class:`InfeasibleAllocationError` when no point is feasible
        (e.g. a model over DynamoDB's object limit with the storage pinned):
        a command can check this before it opens any capture.
        """
        feasible = feasible_grid(workload, self.space, self.platform)
        if not feasible.any():
            storages = ", ".join(s.value for s in self.space.storages)
            raise InfeasibleAllocationError(
                f"no feasible allocation for workload {workload.name} in the "
                f"given space (storage: {storages})"
            )
        return feasible

    def profile(self, workload: Workload) -> ProfileResult:
        """Evaluate the space for ``workload`` and return the boundary."""
        start = host_clock_s()
        space, platform = self.space, self.platform
        with profile_phase("profiler/evaluate_space") as ph:
            feasible = self.require_feasible(workload)
            load_s, compute_s, sync_s = epoch_time_grid(workload, space, platform)
            time_s = load_s + compute_s + sync_s
            invocation, compute_usd, storage_usd = epoch_cost_grid(
                workload, space, time_s, platform
            )
            storage, n, m = space.columns()
            result = ProfileResult(
                storage=storage, n=n, m=m,
                load_s=load_s, compute_s=compute_s, sync_s=sync_s,
                invocation_usd=invocation, compute_usd=compute_usd,
                storage_usd=storage_usd,
                time_s=time_s, cost_usd=invocation + compute_usd + storage_usd,
                feasible=feasible, evaluated=len(space),
            )
            ph.add("points_evaluated", result.evaluated)
        with profile_phase("profiler/pareto_front"):
            idx = np.flatnonzero(feasible)
            if self.use_pareto:
                rows = _front_order(time_s, result.cost_usd, idx)
            else:
                rows = idx[np.argsort(time_s[idx], kind="stable")]
            result.pareto = result._points(rows)
        registry = get_registry()
        registry.counter(
            "repro_profiler_points_evaluated_total",
            "Allocation-grid points evaluated by the Pareto profiler",
        ).inc(result.evaluated)
        registry.gauge(
            "repro_profiler_pareto_pruning_ratio",
            "Fraction of feasible points the boundary keeps "
            "(drives Fig. 21's scheduling-overhead cut)",
        ).set(len(result.pareto) / len(idx))
        result.profile_time_s = host_clock_s() - start
        return result
