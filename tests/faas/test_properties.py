"""Paper invariants of the platform as properties.

* Billing: the gang call equals a loop of scalar bills bit for bit, in
  the meter's totals and in the metered counters, and the meter's total
  is the sum of ceil-rounded GB-seconds times the price plus one request
  fee per invocation.
* Noise-free conformance: with every noise source off, a warm epoch's
  wall time is Eq. (2)'s ``load + compute + sync`` and its bill is Eq.
  (4)'s function cost, up to the granularity rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytical.costmodel import epoch_cost, function_price_per_second
from repro.common.types import Allocation, EpochTimeBreakdown, StorageKind
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.faas.billing import BillingMeter
from repro.faas.noise import NoiseModel
from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.ml.models import workload
from repro.telemetry import MetricsRegistry, get_registry, set_registry

GRAN = DEFAULT_PLATFORM.pricing.billing_granularity_s


def _multiple(k: int) -> float:
    return k * GRAN


duration = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-50.0, 0.0),
    st.floats(0.0, 2e4),
    st.integers(0, 10**7).map(_multiple),
    st.integers(0, 10**7).map(lambda k: math.nextafter(_multiple(k), math.inf)),
    st.integers(1, 10**7).map(lambda k: math.nextafter(_multiple(k), -math.inf)),
)


def _meter_state(meter: BillingMeter) -> str:
    return repr((
        meter.compute_usd, meter.invocation_usd, meter.invocation_count,
        meter.total_usd,
    ))


class TestBillingProperties:
    @given(
        memory_mb=st.integers(128, 10240),
        durations=st.lists(duration, min_size=1, max_size=50),
        earlier=st.lists(duration, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_gang_equals_scalar_loop(self, memory_mb, durations, earlier):
        gang, loop = BillingMeter(), BillingMeter()
        for d in earlier:  # running totals carry over between calls
            gang.bill_invocation(memory_mb, d)
            loop.bill_invocation(memory_mb, d)
        total = gang.bill_gang(memory_mb, np.array(durations))
        want = 0.0
        for d in durations:
            want += loop.bill_invocation(memory_mb, d).total_usd
        assert repr(total) == repr(want)
        assert _meter_state(gang) == _meter_state(loop)

    @given(
        memory_mb=st.integers(128, 10240),
        durations=st.lists(duration, min_size=1, max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_is_rounded_gb_seconds_plus_fees(self, memory_mb, durations):
        pricing = DEFAULT_PLATFORM.pricing
        meter = BillingMeter()
        meter.bill_gang(memory_mb, np.array(durations))
        units = [max(1, math.ceil(max(d, 0.0) / GRAN)) for d in durations]
        gb_s = math.fsum(memory_mb / 1024.0 * u * GRAN for u in units)
        want = (
            gb_s * pricing.usd_per_gb_second
            + len(durations) * pricing.usd_per_invocation
        )
        assert meter.invocation_count == len(durations)
        assert meter.total_usd == pytest.approx(want, rel=1e-12)

    @given(
        gangs=st.lists(
            st.tuples(st.integers(128, 10240), st.lists(duration, max_size=30)),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_gang_feeds_registry_like_scalar_bills(self, gangs):
        """Several gangs in a row, the counters carried across calls: each
        counter reads repr-equal to a loop of scalar bills."""
        prev = get_registry()
        try:
            readings = []
            for gang in (True, False):
                registry = MetricsRegistry()
                set_registry(registry)
                meter = BillingMeter()
                for memory_mb, durations in gangs:
                    if gang:
                        meter.bill_gang(memory_mb, np.array(durations, dtype=float))
                    else:
                        for d in durations:
                            meter.bill_invocation(memory_mb, d)
                usd = registry.get("repro_faas_billed_usd_total")
                readings.append((
                    repr(registry.get("repro_faas_billed_gb_seconds_total").value),
                    repr(usd.labels(component="compute").value),
                    repr(usd.labels(component="invocation").value),
                    repr(registry.snapshot()),
                ))
            assert readings[0] == readings[1]
        finally:
            set_registry(prev)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_refused(self, bad):
        from repro.common.errors import SimulationError

        meter = BillingMeter()
        with pytest.raises(SimulationError):
            meter.bill_gang(1024, np.array([1.0, bad]))
        assert meter.invocation_count == 0


NOISELESS = PlatformConfig(
    compute_noise_sigma=0.0, network_noise_sigma=0.0, cold_start_noise_sigma=0.0
)


def _noiseless_platform(seed: int) -> FaaSPlatform:
    p = FaaSPlatform(platform=NOISELESS, seed=seed)
    p._noise = NoiseModel(seed, "platform", NOISELESS, spike_prob=0.0)
    return p


class TestNoiseFreeConformance:
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(1, 64),
        memory_mb=st.integers(128, 10240),
        load_s=st.floats(0.0, 100.0),
        compute_s=st.floats(0.0, 1000.0),
        sync_s=st.floats(0.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_epoch_matches_eq2_and_eq4(
        self, seed, n, memory_mb, load_s, compute_s, sync_s
    ):
        p = _noiseless_platform(seed)
        spec = EpochExecution(
            group="g", n_functions=n, memory_mb=memory_mb, load_s=load_s,
            compute_s=compute_s, sync_s=sync_s, prewarmed=True,
        )
        first = p.execute_epoch(spec)  # warm, from t = 0
        second = p.execute_epoch(spec)  # warm, from t > 0
        eq2 = EpochTimeBreakdown(load_s, compute_s, sync_s).total_s
        assert first.cold_starts == second.cold_starts == 0
        assert first.wall_time_s == eq2
        assert second.wall_time_s == pytest.approx(eq2, rel=1e-12, abs=1e-9)

        alloc = Allocation(n, memory_mb, StorageKind.S3)
        eq4 = epoch_cost(
            workload("lr-higgs"), alloc,
            EpochTimeBreakdown(load_s, compute_s, sync_s), NOISELESS,
        )
        analytic = eq4.compute_usd + eq4.invocation_usd
        rounding = n * GRAN * function_price_per_second(memory_mb, NOISELESS)
        slack = 1e-12 * analytic + 1e-15
        assert analytic - slack <= first.billed_usd <= analytic + rounding + slack
