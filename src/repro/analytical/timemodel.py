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

from repro.common.errors import InfeasibleAllocationError
from repro.common.types import Allocation, EpochTimeBreakdown
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.ml.models import Workload


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
