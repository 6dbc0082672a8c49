"""The profile table against the scalar reference.

``ParetoProfiler.profile`` evaluates Eq. (2)-(5) as columns over the whole
allocation grid; ``epoch_time``/``epoch_cost`` evaluate one allocation at a
time and price measured epochs. The two must agree bit for bit at every
feasible point, and the front, the WO-pa order and each storage's own front
must be what the object-at-a-time definitions give. No transcendental ufunc
is used by the columns, so no separate check against ``math`` is needed.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytical.costmodel import epoch_cost
from repro.analytical.pareto import pareto_front
from repro.analytical.profiler import ParetoProfiler
from repro.analytical.sensitivity import KNOBS
from repro.analytical.space import AllocationSpace
from repro.analytical.timemodel import epoch_time, is_feasible
from repro.common.errors import InfeasibleAllocationError
from repro.common.types import StorageKind
from repro.config import DEFAULT_PLATFORM
from repro.ml.models import WORKLOADS


def _bits(*values: float) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


@st.composite
def workloads(draw):
    """A catalogue workload, as is or with its model, dataset and batch
    perturbed (model sizes on both sides of DynamoDB's object limit)."""
    w = WORKLOADS[draw(st.sampled_from(sorted(WORKLOADS)))]
    if draw(st.booleans()):
        return w
    profile = dataclasses.replace(
        w.profile,
        fixed_model_mb=draw(st.one_of(st.none(), st.floats(0.01, 400.0))),
        compute_s_per_mb=draw(st.floats(0.01, 500.0)),
        max_speedup=draw(st.floats(0.5, 8.0)),
        base_memory_mb=draw(st.integers(64, 4096)),
    )
    dataset = dataclasses.replace(
        w.dataset,
        n_samples=draw(st.integers(1, 20_000_000)),
        n_features=draw(st.integers(1, 50_000)),
    )
    return dataclasses.replace(
        w, profile=profile, dataset=dataset, batch_size=draw(st.integers(1, 20_000))
    )


spaces = st.builds(
    AllocationSpace,
    # Past the account concurrency (3000) and the memory cap (10240 MB).
    function_counts=st.lists(st.integers(1, 4000), min_size=1, max_size=8, unique=True),
    memory_grid=st.lists(st.integers(128, 12288), min_size=1, max_size=6, unique=True),
    storages=st.lists(st.sampled_from(list(StorageKind)), min_size=1, unique=True),
)


@st.composite
def platforms(draw):
    if draw(st.booleans()):
        return DEFAULT_PLATFORM
    knob = draw(st.sampled_from(sorted(KNOBS)))
    return KNOBS[knob](DEFAULT_PLATFORM, draw(st.floats(0.1, 10.0)))


@given(w=workloads(), space=spaces, platform=platforms())
@settings(max_examples=120, deadline=None)
def test_columns_equal_scalar_reference(w, space, platform):
    allocs = list(space.enumerate())
    profiler = ParetoProfiler(platform=platform, space=space)
    expect_mask = [is_feasible(w, a, platform) for a in allocs]
    if not any(expect_mask):
        with pytest.raises(InfeasibleAllocationError):
            profiler.profile(w)
        return
    prof = profiler.profile(w)
    assert prof.evaluated == len(allocs)
    assert prof.feasible.tolist() == expect_mask
    assert [(a.storage, a.n_functions, a.memory_mb) for a in allocs] == list(
        zip(prof.storage.tolist(), prof.n.tolist(), prof.m.tolist())
    )

    points = prof.all_points
    assert [p.allocation for p in points] == [a for a, ok in zip(allocs, expect_mask) if ok]
    for p in points:
        t = epoch_time(w, p.allocation, platform)
        c = epoch_cost(w, p.allocation, t, platform)
        assert _bits(p.time.load_s, p.time.compute_s, p.time.sync_s) == _bits(
            t.load_s, t.compute_s, t.sync_s
        )
        assert _bits(
            p.cost.invocation_usd, p.cost.compute_usd, p.cost.storage_usd
        ) == _bits(c.invocation_usd, c.compute_usd, c.storage_usd)

    # 𝒫 is the object-at-a-time front, made of all_points' own objects.
    reference = pareto_front(points)
    assert len(prof.pareto) == len(reference)
    assert all(p is q for p, q in zip(prof.pareto, reference))
    for kind in StorageKind:
        pinned = pareto_front([p for p in points if p.allocation.storage is kind])
        front = prof.front(kind)
        assert len(front) == len(pinned) and all(p is q for p, q in zip(front, pinned))

    wo_pa = ParetoProfiler(platform=platform, space=space, use_pareto=False).profile(w)
    assert wo_pa.pareto == sorted(wo_pa.all_points, key=lambda p: p.time_s)
    assert wo_pa.pareto == sorted(points, key=lambda p: p.time_s)


@pytest.mark.parametrize("name", ["mobilenet-cifar10", "resnet50-cifar10", "bert-imdb"])
def test_dynamodb_cells_are_empty(name):
    """Table II's "N/A" cells: the model exceeds DynamoDB's object limit,
    so its own front is empty and a DynamoDB-only space has no point."""
    w = WORKLOADS[name]
    assert ParetoProfiler().profile(w).front(StorageKind.DYNAMODB) == []
    pinned = ParetoProfiler(
        space=AllocationSpace(storages=(StorageKind.DYNAMODB,))
    )
    with pytest.raises(InfeasibleAllocationError, match="dynamodb"):
        pinned.require_feasible(w)
