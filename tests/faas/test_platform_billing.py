"""Tests for the FaaS platform simulator and the billing meter."""

import pytest

from repro.common.types import StorageKind
from repro.config import DEFAULT_PLATFORM
from repro.faas.billing import BillingMeter
from repro.faas.noise import NoiseModel
from repro.faas.platform import EpochExecution, FaaSPlatform


def _spec(group="g", n=4, mem=1769, load=1.0, compute=5.0, sync=2.0, prewarmed=False):
    return EpochExecution(
        group=group, n_functions=n, memory_mb=mem,
        load_s=load, compute_s=compute, sync_s=sync, prewarmed=prewarmed,
    )


class TestBillingMeter:
    def test_rounds_up_to_granularity(self):
        meter = BillingMeter()
        bill = meter.bill_invocation(1024, 0.0004)
        assert bill.billed_duration_s == pytest.approx(0.001)

    def test_gb_second_pricing(self):
        meter = BillingMeter()
        bill = meter.bill_invocation(1024, 10.0)
        assert bill.compute_usd == pytest.approx(
            10.0 * DEFAULT_PLATFORM.pricing.usd_per_gb_second
        )

    def test_invocation_fee(self):
        meter = BillingMeter()
        bill = meter.bill_invocation(512, 1.0)
        assert bill.invocation_usd == pytest.approx(0.20 / 1e6)

    def test_totals_accumulate(self):
        meter = BillingMeter()
        meter.bill_invocation(1024, 1.0)
        meter.bill_invocation(1024, 2.0)
        meter.bill_storage(0.5)
        assert meter.invocation_count == 2
        assert meter.total_usd == pytest.approx(
            meter.compute_usd + meter.invocation_usd + 0.5
        )

    def test_negative_storage_ignored(self):
        meter = BillingMeter()
        meter.bill_storage(-1.0)
        assert meter.storage_usd == 0.0

    def test_zero_duration_bills_one_granularity_unit(self):
        """Lambda bills a minimum of one granularity unit per invocation."""
        meter = BillingMeter()
        gran = DEFAULT_PLATFORM.pricing.billing_granularity_s
        bill = meter.bill_invocation(1024, 0.0)
        assert bill.billed_duration_s == pytest.approx(gran)
        assert bill.compute_usd > 0.0

    def test_negative_duration_clamps_to_one_unit(self):
        meter = BillingMeter()
        gran = DEFAULT_PLATFORM.pricing.billing_granularity_s
        bill = meter.bill_invocation(1024, -3.0)
        assert bill.billed_duration_s == pytest.approx(gran)

    def test_rounding_matches_ceil(self):
        import math

        meter = BillingMeter()
        gran = DEFAULT_PLATFORM.pricing.billing_granularity_s
        for duration in (0.0001, 0.0015, 0.01, 0.9999, 1.0, 7.3):
            bill = meter.bill_invocation(512, duration)
            assert bill.billed_duration_s == pytest.approx(
                math.ceil(duration / gran) * gran
            ), duration

    def test_exact_multiple_not_rounded_up(self):
        """A duration landing exactly on a boundary bills that amount."""
        meter = BillingMeter()
        gran = DEFAULT_PLATFORM.pricing.billing_granularity_s
        bill = meter.bill_invocation(1024, 5 * gran)
        assert bill.billed_duration_s == pytest.approx(5 * gran)


class TestNoiseModel:
    def test_deterministic(self):
        a = NoiseModel(1, "x")
        b = NoiseModel(1, "x")
        assert (a.compute_factors(4) == b.compute_factors(4)).all()
        assert a.network_factor() == b.network_factor()

    def test_factors_positive(self):
        n = NoiseModel(0)
        assert (n.compute_factors(50) > 0).all()
        assert all(n.network_factor() > 0 for _ in range(50))

    def test_compute_factors_vector(self):
        n = NoiseModel(0)
        f = n.compute_factors(10)
        assert f.shape == (10,)
        assert (f > 0).all()

    def test_median_near_one(self):
        import numpy as np

        n = NoiseModel(3)
        samples = n.compute_factors(500)
        assert abs(np.median(samples) - 1.0) < 0.05


class TestPlatform:
    def test_cold_then_warm(self):
        p = FaaSPlatform(seed=0)
        first = p.execute_epoch(_spec())
        second = p.execute_epoch(_spec())
        assert first.cold_starts == 4
        assert second.cold_starts == 0
        assert first.wall_time_s > second.wall_time_s

    def test_prewarm_skips_cold_start(self):
        p = FaaSPlatform(seed=0)
        p.prewarm("hot", 4)
        res = p.execute_epoch(_spec(group="hot"))
        assert res.cold_starts == 0

    def test_partial_prewarm_partially_cold(self):
        p = FaaSPlatform(seed=0)
        p.prewarm("hot", 2)
        res = p.execute_epoch(_spec(group="hot", n=4))
        assert res.cold_starts == 2

    def test_scale_up_reuses_existing_instances(self):
        """Growing n mid-job only cold-starts the new instances."""
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(n=4))
        res = p.execute_epoch(_spec(n=6))
        assert res.cold_starts == 2

    def test_warm_ttl_expires_instances(self):
        p = FaaSPlatform(seed=0, warm_ttl_s=1.0)
        p.execute_epoch(_spec(n=4, compute=0.1, load=0.0, sync=0.0))
        # Advance simulated time past the TTL with an unrelated group.
        p.execute_epoch(_spec(group="other", n=1, compute=50.0, load=0.0, sync=0.0))
        res = p.execute_epoch(_spec(n=4, compute=0.1, load=0.0, sync=0.0))
        assert res.cold_starts == 4

    def test_retire_makes_group_cold(self):
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(group="g"))
        p.retire("g")
        res = p.execute_epoch(_spec(group="g"))
        assert res.cold_starts == 4

    def test_billing_counts_all_functions(self):
        p = FaaSPlatform(seed=0)
        p.execute_epoch(_spec(n=7))
        assert p.meter.invocation_count == 7

    def test_wall_time_close_to_phases(self):
        p = FaaSPlatform(seed=0)
        res = p.execute_epoch(_spec(load=1.0, compute=5.0, sync=2.0, prewarmed=True))
        # Noise is a few percent; barrier adds the max over functions.
        assert res.wall_time_s == pytest.approx(8.0, rel=0.3)

    def test_measured_breakdown_components(self):
        p = FaaSPlatform(seed=1)
        res = p.execute_epoch(_spec(prewarmed=True))
        assert res.time.load_s > 0
        assert res.time.compute_s > 0
        assert res.time.sync_s > 0

    def test_concurrency_gang_over_limit_fails(self):
        """A BSP epoch needs all workers alive at once: demanding more than
        the account limit is infeasible, not queued."""
        from repro.common.errors import SimulationError
        from repro.config import LambdaLimits, PlatformConfig

        tiny = PlatformConfig(limits=LambdaLimits(max_concurrency=2))
        p = FaaSPlatform(platform=tiny, seed=0)
        with pytest.raises(SimulationError):
            p.execute_epoch(_spec(n=4, prewarmed=True))

    def test_concurrent_jobs_share_account(self):
        """Two function groups on one account run one after the other, so
        each may hold the whole concurrency limit."""
        from repro.config import LambdaLimits, PlatformConfig

        tiny = PlatformConfig(limits=LambdaLimits(max_concurrency=4))
        p = FaaSPlatform(platform=tiny, seed=0)
        a = p.execute_epoch(_spec(group="a", n=4, prewarmed=True))
        b = p.execute_epoch(_spec(group="b", n=4, prewarmed=True))
        assert p.sim.now == pytest.approx(a.wall_time_s + b.wall_time_s)
        assert p.peak_in_use == 4

    def test_deterministic_per_seed(self):
        a = FaaSPlatform(seed=42).execute_epoch(_spec())
        b = FaaSPlatform(seed=42).execute_epoch(_spec())
        assert a.wall_time_s == b.wall_time_s
        assert a.billed_usd == b.billed_usd
