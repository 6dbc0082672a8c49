"""CloudWatch-style metering of simulated executions.

The meter is the reproduction's ground truth for cost: the model-validation
experiment (Fig. 19/20) compares the analytical cost model against what this
layer bills for noisy simulated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import SimulationError, ValidationError
from repro.common.units import gb_seconds
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.telemetry import get_registry


@dataclass(frozen=True, slots=True)
class InvocationBill:
    """Billing record of one function invocation."""

    memory_mb: int
    duration_s: float
    billed_duration_s: float
    compute_usd: float
    invocation_usd: float

    @property
    def total_usd(self) -> float:
        return self.compute_usd + self.invocation_usd


@dataclass
class BillingMeter:
    """Accumulates function and storage charges for one job.

    The meter keeps running totals, added in billing order, rather than
    every bill: a job bills tens of thousands of invocations and only
    their sums are ever read.
    """

    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    storage_usd: float = 0.0
    compute_usd: float = field(default=0.0, init=False)
    invocation_usd: float = field(default=0.0, init=False)
    invocation_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        registry = get_registry()
        self._metered = registry.enabled
        self._m_gb_seconds = registry.counter(
            "repro_faas_billed_gb_seconds_total",
            "GB-seconds billed across all invocations",
        )
        self._m_billed_usd = registry.counter(
            "repro_faas_billed_usd_total",
            "Money billed, by cost component",
            labelnames=("component",),
        )

    def bill_invocation(self, memory_mb: int, duration_s: float) -> InvocationBill:
        """Bill one invocation: duration rounded up to the billing
        granularity (minimum one unit, as Lambda bills), priced per
        GB-second, plus the request fee."""
        pricing = self.platform.pricing
        gran = pricing.billing_granularity_s
        billed = max(1, math.ceil(max(duration_s, 0.0) / gran)) * gran
        bill = InvocationBill(
            memory_mb=memory_mb,
            duration_s=duration_s,
            billed_duration_s=billed,
            compute_usd=gb_seconds(memory_mb, billed) * pricing.usd_per_gb_second,
            invocation_usd=pricing.usd_per_invocation,
        )
        self.compute_usd += bill.compute_usd
        self.invocation_usd += bill.invocation_usd
        self.invocation_count += 1
        self._m_gb_seconds.inc(gb_seconds(memory_mb, billed))
        self._m_billed_usd.labels(component="compute").inc(bill.compute_usd)
        self._m_billed_usd.labels(component="invocation").inc(bill.invocation_usd)
        return bill

    def bill_gang(self, memory_mb: int, durations_s: np.ndarray) -> float:
        """Bill one invocation per duration; returns the gang's total USD.

        Bit-identical to calling :meth:`bill_invocation` once per duration
        in order and summing each bill's ``total_usd`` from 0.0: the
        rounding and pricing run elementwise in the same operation order,
        and every sum is added left to right (``np.sum``'s pairwise order
        would change the last bit).
        """
        durations_s = np.asarray(durations_s, dtype=float)
        if not np.isfinite(durations_s).all():
            raise SimulationError("cannot bill a non-finite invocation duration")
        pricing = self.platform.pricing
        gran = pricing.billing_granularity_s
        fee = pricing.usd_per_invocation
        billed = np.maximum(np.ceil(np.maximum(durations_s, 0.0) / gran), 1.0) * gran
        gbs = (memory_mb / 1024.0) * billed
        compute_arr = gbs * pricing.usd_per_gb_second
        compute = compute_arr.tolist()
        total = 0.0
        compute_usd = self.compute_usd
        invocation_usd = self.invocation_usd
        for usd in compute:
            total += usd + fee
            compute_usd += usd
            invocation_usd += fee
        self.compute_usd = compute_usd
        self.invocation_usd = invocation_usd
        self.invocation_count += len(compute)
        if self._metered and compute:
            # One read and one write-back per counter, adding left to right
            # in between: the float sequence of one Counter.inc per bill.
            if fee < 0 or (gbs < 0).any() or (compute_arr < 0).any():
                raise ValidationError(
                    f"counter increment must be >= 0, got "
                    f"{min(fee, gbs.min(), compute_arr.min())}"
                )
            m_gbs = self._m_gb_seconds._default_child()
            m_compute = self._m_billed_usd.labels(component="compute")
            m_invocation = self._m_billed_usd.labels(component="invocation")
            v_gbs, v_compute, v_invocation = m_gbs.value, m_compute.value, m_invocation.value
            for gb_s, usd in zip(gbs.tolist(), compute):
                v_gbs += gb_s
                v_compute += usd
                v_invocation += fee
            m_gbs.value, m_compute.value, m_invocation.value = v_gbs, v_compute, v_invocation
        return total

    def bill_storage(self, usd: float) -> None:
        """Add an external-storage charge."""
        usd = max(0.0, usd)
        self.storage_usd += usd
        self._m_billed_usd.labels(component="storage").inc(usd)

    @property
    def total_usd(self) -> float:
        return self.compute_usd + self.invocation_usd + self.storage_usd
