"""Execution-time model for one epoch — paper Eq. (2) and (3).

``t'(θ) = t_load + k * (t_grad + t_sync)`` where

* ``t_load = (D / n) / B_S3`` — each function pulls its dataset partition
  from long-term storage once per epoch;
* ``t_grad`` — gradient computation on the per-iteration mini-batch, derived
  from the model's per-MB compute cost and the memory-proportional CPU share
  u(m) Lambda grants;
* ``t_sync`` — Eq. (3): ``(3n - 2) * (M / b_s + l_s)`` for passive storage
  (functions aggregate through the store: push gradient, re-pull, push
  merged model) and ``(2n - 2) * (M / b_s + l_s)`` for VM-PS, which
  aggregates locally (Fig. 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import InfeasibleAllocationError
from repro.common.types import Allocation, EpochTimeBreakdown
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.ml.models import Workload

if TYPE_CHECKING:
    from repro.analytical.space import AllocationSpace


def compute_speedup(
    workload: Workload, memory_mb: int, platform: PlatformConfig = DEFAULT_PLATFORM
) -> float:
    """Effective speedup from the CPU share granted at ``memory_mb``.

    Lambda grants ``memory / 1769`` vCPUs; a model can only exploit them up
    to its ``max_speedup`` (intra-function parallel efficiency), and never
    runs faster than its share when below one full vCPU.
    """
    share = platform.vcpu_share(memory_mb)
    return min(share, workload.profile.max_speedup)


def sync_time_per_iteration(
    workload: Workload, alloc: Allocation, platform: PlatformConfig = DEFAULT_PLATFORM
) -> float:
    """Parameter-synchronization time per BSP iteration t_p(θ) — Eq. (3)."""
    svc = platform.storage_config(alloc.storage)
    transfers = (
        2 * alloc.n_functions - 2
        if not alloc.storage.is_passive
        else 3 * alloc.n_functions - 2
    )
    return transfers * (workload.model_mb / svc.bandwidth_mb_s + svc.latency_s)


def is_feasible(
    workload: Workload, alloc: Allocation, platform: PlatformConfig = DEFAULT_PLATFORM
) -> bool:
    """True when θ violates no hard platform/storage limit."""
    try:
        check_feasible(workload, alloc, platform)
    except InfeasibleAllocationError:
        return False
    return True


def check_feasible(
    workload: Workload, alloc: Allocation, platform: PlatformConfig = DEFAULT_PLATFORM
) -> None:
    """Raise :class:`InfeasibleAllocationError` when θ breaks a hard limit.

    Checks: memory bounds, working-set floor, account concurrency, and the
    storage object-size limit (DynamoDB's 400 KB cap makes it "N/A" for
    MobileNet/ResNet/BERT — Table II, Fig. 18).
    """
    lim = platform.limits
    if alloc.memory_mb < lim.min_memory_mb or alloc.memory_mb > lim.max_memory_mb:
        raise InfeasibleAllocationError(
            f"memory {alloc.memory_mb} MB outside [{lim.min_memory_mb}, {lim.max_memory_mb}]"
        )
    if alloc.n_functions > lim.max_concurrency:
        raise InfeasibleAllocationError(
            f"{alloc.n_functions} functions exceed account concurrency {lim.max_concurrency}"
        )
    floor = workload.min_memory_mb(alloc.n_functions)
    if alloc.memory_mb < floor:
        raise InfeasibleAllocationError(
            f"{workload.name} needs >= {floor} MB per function, got {alloc.memory_mb}"
        )
    svc = platform.storage_config(alloc.storage)
    if workload.model_mb > svc.object_limit_mb:
        raise InfeasibleAllocationError(
            f"model {workload.model_mb:.2f} MB exceeds {alloc.storage.value} "
            f"object limit {svc.object_limit_mb:.2f} MB"
        )


def epoch_time(
    workload: Workload, alloc: Allocation, platform: PlatformConfig = DEFAULT_PLATFORM
) -> EpochTimeBreakdown:
    """Per-epoch execution-time breakdown t'(θ) — Eq. (2).

    Raises :class:`InfeasibleAllocationError` for infeasible allocations.
    """
    check_feasible(workload, alloc, platform)
    n = alloc.n_functions
    k = workload.iterations_per_epoch(n)
    partition_mb = workload.dataset_mb / n
    load_s = partition_mb / platform.limits.dataset_load_bandwidth_mb_s
    u = workload.profile.compute_s_per_mb / compute_speedup(
        workload, alloc.memory_mb, platform
    )
    compute_s = partition_mb * u  # = k * (per-iteration batch MB) * u
    sync_s = k * sync_time_per_iteration(workload, alloc, platform)
    return EpochTimeBreakdown(load_s=load_s, compute_s=compute_s, sync_s=sync_s)


def feasible_grid(
    workload: Workload, space: AllocationSpace, platform: PlatformConfig = DEFAULT_PLATFORM
) -> np.ndarray:
    """:func:`is_feasible` over the whole grid: a flat mask in
    :meth:`AllocationSpace.enumerate` order."""
    lim = platform.limits
    n = np.asarray(space.function_counts)
    m = np.asarray(space.memory_grid)
    floor = np.array([workload.min_memory_mb(x) for x in space.function_counts])
    fits = np.array([
        not workload.model_mb > platform.storage_config(s).object_limit_mb
        for s in space.storages
    ])
    n_m = (
        (n <= lim.max_concurrency)[:, None]
        & ((m >= lim.min_memory_mb) & (m <= lim.max_memory_mb))[None, :]
        & (m[None, :] >= floor[:, None])
    )
    return (fits[:, None, None] & n_m[None]).ravel()


def epoch_time_grid(
    workload: Workload, space: AllocationSpace, platform: PlatformConfig = DEFAULT_PLATFORM
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`epoch_time` over the whole grid: flat ``(load_s, compute_s,
    sync_s)`` columns in :meth:`AllocationSpace.enumerate` order.

    Term for term the scalar arithmetic, so each feasible point's
    components equal :func:`epoch_time`'s bit for bit: k, the memory floor
    and the CPU share come from the scalar helpers once per axis value,
    and the cross terms are elementwise products in the scalar order.
    Infeasible points get finite values that :func:`feasible_grid` masks.
    """
    counts, memories = space.function_counts, space.memory_grid
    shape = (len(space.storages), len(counts), len(memories))
    n = np.asarray(counts)
    k = np.array([workload.iterations_per_epoch(x) for x in counts])
    partition_mb = workload.dataset_mb / n
    load_s = partition_mb / platform.limits.dataset_load_bandwidth_mb_s
    u = np.array([
        workload.profile.compute_s_per_mb / compute_speedup(workload, x, platform)
        for x in memories
    ])
    compute_s = partition_mb[:, None] * u[None, :]
    sync_s = np.empty(shape[:2])
    for i, kind in enumerate(space.storages):
        svc = platform.storage_config(kind)
        transfers = 3 * n - 2 if kind.is_passive else 2 * n - 2
        sync_s[i] = k * (transfers * (workload.model_mb / svc.bandwidth_mb_s + svc.latency_s))
    return (
        np.broadcast_to(load_s[None, :, None], shape).ravel(),
        np.broadcast_to(compute_s[None], shape).ravel(),
        np.broadcast_to(sync_s[:, :, None], shape).ravel(),
    )
