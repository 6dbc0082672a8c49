"""Monetary-cost model for one epoch — paper Eq. (4) and (5).

``c'(θ) = n * p_ivk + n * t'(θ) * p_f(m) + c_s(θ)`` where the storage term
depends on the service's pricing pattern (Eq. 5):

* request-charged (S3, DynamoDB): ``k * (10n + 2) * p_s`` — the paper's
  accounting of ~10 requests per function per BSP round plus 2 bookkeeping
  requests, priced per request (size-dependent for DynamoDB);
* runtime-charged (ElastiCache, VM-PS): ``(t' / 60 + 1) * p_s`` — the
  provisioned node is billed per minute for the epoch's duration, with
  per-minute rounding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common.types import (
    Allocation,
    EpochCostBreakdown,
    EpochTimeBreakdown,
    PricingPattern,
)
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.timemodel import epoch_time
from repro.ml.models import Workload

if TYPE_CHECKING:
    from repro.analytical.space import AllocationSpace


def function_price_per_second(
    memory_mb: int, platform: PlatformConfig = DEFAULT_PLATFORM
) -> float:
    """Lambda compute price p_f(m) in USD per second for one function."""
    return (memory_mb / 1024.0) * platform.pricing.usd_per_gb_second


def storage_cost(
    workload: Workload,
    alloc: Allocation,
    epoch_duration_s: float,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> float:
    """Per-epoch external-storage cost c_s(θ) — Eq. (5)."""
    svc = platform.storage_config(alloc.storage)
    if svc.pricing is PricingPattern.REQUEST:
        k = workload.iterations_per_epoch(alloc.n_functions)
        requests = k * (10 * alloc.n_functions + 2)
        return requests * svc.request_price_usd(workload.model_mb)
    # Runtime-charged: provisioned node billed per minute over the epoch.
    return (epoch_duration_s / 60.0 + 1.0) * svc.usd_per_minute


def epoch_cost(
    workload: Workload,
    alloc: Allocation,
    time_breakdown: EpochTimeBreakdown | None = None,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> EpochCostBreakdown:
    """Per-epoch monetary-cost breakdown c'(θ) — Eq. (4).

    ``time_breakdown`` may be supplied to price a *measured* epoch (the
    billing layer does this); otherwise the analytical t'(θ) is used.
    """
    t = time_breakdown if time_breakdown is not None else epoch_time(
        workload, alloc, platform
    )
    n = alloc.n_functions
    invocation = n * platform.pricing.usd_per_invocation
    compute = n * t.total_s * function_price_per_second(alloc.memory_mb, platform)
    storage = storage_cost(workload, alloc, t.total_s, platform)
    return EpochCostBreakdown(
        invocation_usd=invocation, compute_usd=compute, storage_usd=storage
    )


def epoch_cost_grid(
    workload: Workload,
    space: AllocationSpace,
    total_s: np.ndarray,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`epoch_cost` over the whole grid: flat ``(invocation_usd,
    compute_usd, storage_usd)`` columns in :meth:`AllocationSpace.enumerate`
    order, pricing the epoch times ``total_s`` (same order).

    Bit for bit :func:`epoch_cost` at every point, by the same term-for-term
    construction as :func:`~repro.analytical.timemodel.epoch_time_grid`.
    """
    counts, memories = space.function_counts, space.memory_grid
    shape = (len(space.storages), len(counts), len(memories))
    total = total_s.reshape(shape)
    n = np.asarray(counts)
    invocation = n * platform.pricing.usd_per_invocation
    price = np.array([function_price_per_second(x, platform) for x in memories])
    compute = n[:, None] * total * price
    k = np.array([workload.iterations_per_epoch(x) for x in counts])
    requests = k * (10 * n + 2)
    storage = np.empty(shape)
    for i, kind in enumerate(space.storages):
        svc = platform.storage_config(kind)
        if svc.pricing is PricingPattern.REQUEST:
            storage[i] = (requests * svc.request_price_usd(workload.model_mb))[:, None]
        else:
            storage[i] = (total[i] / 60.0 + 1.0) * svc.usd_per_minute
    return (
        np.broadcast_to(invocation[None, :, None], shape).ravel(),
        compute.ravel(),
        storage.ravel(),
    )
