"""A gang's predrawn fault sites against their own streams.

``FaultInjector.predraw_gang`` seeds every site a gang's faulty ranks can
read in array passes. Each predrawn uniform and PCG64 state must be the
one ``stream_for(seed, "faults", scope, *site)`` gives, and the injector
must decide, return and record exactly what the per-site reference
(``reference_injector.py``) does, bit for bit, whether a read hits the
predrawn rows or falls back to its own stream.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.rng import stream_for
from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.faults.injector import PREDRAW_ATTEMPTS, FaultInjector
from repro.faults.plan import (
    ANY_STORAGE,
    FaultPlan,
    RetrySpec,
    StorageFaultSpec,
    ThrottleWindow,
)

from tests.faas.test_faulted_gang import _outcome, epoch as epoch_specs, plans as gang_plans
from tests.faults.reference_injector import ReferenceInjector

seeds = st.one_of(
    st.integers(0, 2**16), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**80)
)
prob = st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])
plans = st.builds(
    FaultPlan,
    crash_prob=prob,
    crash_mid_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    invocation_timeout_s=st.sampled_from([None, 5.0]),
    cold_start_failure_prob=prob,
    storage=st.one_of(
        st.just({}),
        st.builds(
            StorageFaultSpec,
            transient_prob=prob,
            max_errors=st.integers(1, 4),
            throttle_windows=st.just((ThrottleWindow(0.0, 50.0),)),
        ).map(lambda spec: {ANY_STORAGE: spec}),
    ),
    retry=st.builds(
        RetrySpec,
        # Past PREDRAW_ATTEMPTS, a rank's later attempts draw alone.
        max_attempts=st.integers(1, PREDRAW_ATTEMPTS + 3),
        base_backoff_s=st.sampled_from([0.0, 0.5]),
        jitter=st.sampled_from([0.0, 0.25, 1.0]),
    ),
)
gangs = st.integers(1, 24).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "n_warm": st.integers(0, n),
    "epoch": st.one_of(st.integers(0, 40), st.integers(2**20, 2**40)),
    "incarnation": st.integers(0, 3),
    "late": st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)),
    "scope": st.sampled_from(["train", "tune"]),
}))

# Each predrawn kind's site labels from (epoch, rank, row j, incarnation):
# j is the attempt, or the cold-start window's count.
SITES = {
    "crash": lambda e, r, j, i: (e, r, j, i),
    "crash-mid": lambda e, r, j, i: (e, r, j, i),
    "crash-frac": lambda e, r, j, i: (e, r, j, i),
    "retry-compute": lambda e, r, j, i: (e, r, j, i),
    "backoff": lambda e, r, j, i: (j, e, r, i),
    "cold-fail": lambda e, r, j, i: (e, r, 0, i, j),
    "cold-window": lambda e, r, j, i: (e, r, 0, j, i),
}


def _predrawn(plan, seed, gang, cls=FaultInjector):
    injector = cls(plan, seed=seed, scope=gang["scope"])
    late = None if gang["late"] is None else np.array(gang["late"])
    faulty = injector.predraw_gang(
        gang["epoch"], gang["n"], gang["n_warm"], gang["incarnation"], late
    )
    return injector, faulty


@given(plan=plans, seed=seeds, gang=gangs)
@settings(max_examples=150, deadline=None)
def test_every_predrawn_site_is_its_streams_draw(plan, seed, gang):
    injector, faulty = _predrawn(plan, seed, gang)
    epoch, inc, scope = gang["epoch"], gang["incarnation"], gang["scope"]
    stride = min(plan.retry.max_attempts, PREDRAW_ATTEMPTS)
    for kind, (base, slots) in injector._rows.items():
        assert set(slots) <= set(np.flatnonzero(faulty).tolist())
        for rank, slot in slots.items():
            for j in range(stride):
                ref = stream_for(seed, "faults", scope, kind, *SITES[kind](epoch, rank, j, inc))
                row = base + slot * stride + j
                if kind in ("retry-compute", "cold-window"):
                    state = ref.bit_generator.state["state"]
                    assert injector._states[row] == (state["state"], state["inc"])
                assert injector._us[row] == float(ref.random())
    for kind, u in injector._gang_us.items():
        assert u == float(stream_for(seed, "faults", scope, kind, epoch, inc).random())


def _reads(injector, gang, plan):
    """Every decision a gang's ranks can make, plus some of another gang."""
    epoch, inc = gang["epoch"], gang["incarnation"]
    out = []
    for e, i in ((epoch, inc), (epoch + 1, inc), (epoch, inc + 1)):
        for rank in range(gang["n"]):
            for attempt in range(plan.retry.max_attempts + 1):
                out.append((
                    injector.worker_fault(e, rank, attempt, i),
                    injector.cold_start_failures(e, rank, attempt, i),
                    [injector.cold_window_factor(e, rank, attempt, k, 0.3, i)
                     for k in range(plan.retry.max_attempts + 1)],
                    injector.retry_compute_factor(e, rank, attempt, 0.3, i),
                    injector.retry_compute_factor(e, rank, attempt, 0.0, i),
                    injector.backoff_s(attempt + 1, e, rank, i),
                ))
        out.append(injector.sync_penalty(e, "s3", 10.0, 5.0, i))
    out.append(injector.stage_penalty(epoch, "s3", 10.0, 5.0))
    return out, injector.ledger.records


@given(plan=plans, seed=seeds, gang=gangs)
@settings(max_examples=60, deadline=None)
def test_decisions_match_the_per_site_reference(plan, seed, gang):
    fast, faulty = _predrawn(plan, seed, gang)
    ref, ref_faulty = _predrawn(plan, seed, gang, ReferenceInjector)
    assert faulty.tolist() == ref_faulty.tolist()
    assert repr(_reads(fast, gang, plan)) == repr(_reads(ref, gang, plan))


@given(
    plan=gang_plans,
    seed=st.one_of(st.integers(0, 2**16), st.integers(2**32, 2**40)),
    epochs=st.lists(epoch_specs, min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_platform_matches_the_per_site_reference(plan, seed, epochs):
    fast, ref = (
        FaaSPlatform(seed=seed, fault_injector=cls(plan, seed=seed))
        for cls in (FaultInjector, ReferenceInjector)
    )
    for index, e in enumerate(epochs, start=1):
        spec = EpochExecution(
            group=e["group"], n_functions=e["n"], memory_mb=1024,
            load_s=e["load_s"], compute_s=e["compute_s"], sync_s=e["sync_s"],
            prewarmed=e["prewarmed"], epoch_index=index, storage="s3",
            incarnation=e["incarnation"],
        )
        assert _outcome(fast, spec) == _outcome(ref, spec)
