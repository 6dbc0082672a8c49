"""Tests for the cost model (Eq. 4-5), Pareto extraction, and the profiler."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.types import (
    Allocation,
    EpochCostBreakdown,
    EpochTimeBreakdown,
    StorageKind,
)
from repro.analytical.costmodel import epoch_cost, function_price_per_second, storage_cost
from repro.analytical.pareto import (
    ProfiledAllocation,
    dominated_fraction,
    is_dominated,
    pareto_front,
)
from repro.analytical.profiler import ParetoProfiler
from repro.analytical.space import (
    DEFAULT_FUNCTION_GRID,
    DEFAULT_MEMORY_GRID,
    AllocationSpace,
    default_space,
)
from repro.analytical.timemodel import epoch_time
from repro.common.errors import InfeasibleAllocationError
from repro.config import DEFAULT_PLATFORM
from repro.ml.models import WORKLOADS


def _pt(t: float, c: float) -> ProfiledAllocation:
    return ProfiledAllocation(
        allocation=Allocation(1, 512, StorageKind.S3),
        time=EpochTimeBreakdown(0, t, 0),
        cost=EpochCostBreakdown(0, c, 0),
    )


class TestCostModel:
    def test_function_price_linear_in_memory(self):
        assert function_price_per_second(2048) == pytest.approx(
            2 * function_price_per_second(1024)
        )

    def test_cost_components_positive(self, lr_higgs):
        c = epoch_cost(lr_higgs, Allocation(10, 1769, StorageKind.S3))
        assert c.invocation_usd > 0
        assert c.compute_usd > 0
        assert c.storage_usd > 0

    def test_request_charged_storage_independent_of_duration(self, lr_higgs):
        a = Allocation(10, 1769, StorageKind.S3)
        assert storage_cost(lr_higgs, a, 10.0) == storage_cost(lr_higgs, a, 1000.0)

    def test_runtime_charged_storage_scales_with_duration(self, lr_higgs):
        a = Allocation(10, 1769, StorageKind.VMPS)
        assert storage_cost(lr_higgs, a, 600.0) > storage_cost(lr_higgs, a, 60.0)

    def test_runtime_minimum_one_minute(self, lr_higgs):
        a = Allocation(10, 1769, StorageKind.VMPS)
        cfg = DEFAULT_PLATFORM.storage_config(StorageKind.VMPS)
        assert storage_cost(lr_higgs, a, 0.0) == pytest.approx(cfg.usd_per_minute)

    def test_request_count_follows_eq5(self, lr_higgs):
        """S3 cost = k * (10n + 2) * p_s."""
        a = Allocation(10, 1769, StorageKind.S3)
        k = lr_higgs.iterations_per_epoch(10)
        cfg = DEFAULT_PLATFORM.storage_config(StorageKind.S3)
        expected = k * (10 * 10 + 2) * cfg.request_price_usd(lr_higgs.model_mb)
        assert storage_cost(lr_higgs, a, 100.0) == pytest.approx(expected)

    def test_dynamodb_price_grows_with_model(self, lr_higgs):
        from repro.ml.models import workload

        lr_yfcc = workload("lr-yfcc")  # 32 KB model vs Higgs's 224 B
        cfg = DEFAULT_PLATFORM.storage_config(StorageKind.DYNAMODB)
        assert cfg.request_price_usd(lr_yfcc.model_mb) > cfg.request_price_usd(
            lr_higgs.model_mb
        )

    def test_accepts_measured_breakdown(self, lr_higgs):
        a = Allocation(10, 1769, StorageKind.S3)
        t = epoch_time(lr_higgs, a)
        doubled = t.scaled(2.0)
        assert epoch_cost(lr_higgs, a, doubled).compute_usd == pytest.approx(
            2 * epoch_cost(lr_higgs, a, t).compute_usd
        )


class TestPareto:
    def test_simple_front(self):
        pts = [_pt(1, 10), _pt(2, 5), _pt(3, 1), _pt(3, 9), _pt(4, 2)]
        front = pareto_front(pts)
        assert [(p.time_s, p.cost_usd) for p in front] == [(1, 10), (2, 5), (3, 1)]

    def test_front_sorted_by_time(self):
        pts = [_pt(5, 1), _pt(1, 5), _pt(3, 3)]
        front = pareto_front(pts)
        times = [p.time_s for p in front]
        assert times == sorted(times)

    def test_single_point(self):
        pts = [_pt(1, 1)]
        assert pareto_front(pts) == pts

    def test_empty(self):
        assert pareto_front([]) == []

    def test_is_dominated(self):
        pts = [_pt(1, 1), _pt(2, 2)]
        assert is_dominated(pts[1], pts)
        assert not is_dominated(pts[0], pts)

    def test_dominated_fraction(self):
        pts = [_pt(1, 1), _pt(2, 2), _pt(3, 3), _pt(0.5, 4)]
        assert dominated_fraction(pts) == pytest.approx(0.5)

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 100), st.floats(0.001, 10)),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_front_members_never_dominated(self, raw):
        pts = [_pt(t, c) for t, c in raw]
        front = pareto_front(pts)
        assert front, "front must be non-empty for non-empty input"
        for p in front:
            assert not is_dominated(p, pts)
        # And everything off the front is dominated by someone, or is an
        # exact (time, cost) duplicate of a front member.
        front_keys = {(q.time_s, q.cost_usd) for q in front}
        for p in pts:
            if all(p is not q for q in front):
                assert is_dominated(p, pts) or (p.time_s, p.cost_usd) in front_keys


class TestSpaceAndProfiler:
    def test_default_space_size(self):
        space = default_space()
        assert len(space) == len(list(space.enumerate()))
        assert len(space) > 100

    def test_restrict_storage(self):
        space = default_space().restrict_storage(StorageKind.S3)
        assert all(a.storage is StorageKind.S3 for a in space.enumerate())

    def test_max_functions_truncation(self):
        space = default_space(max_functions=20)
        assert max(space.function_counts) <= 20

    def test_feasible_filters(self, bert):
        allocs = default_space().feasible(bert)
        assert allocs
        assert all(a.memory_mb >= 4096 for a in allocs)
        assert all(a.storage is not StorageKind.DYNAMODB for a in allocs)

    def test_profiler_front_subset_of_points(self, lr_profile):
        ids = {p.allocation for p in lr_profile.all_points}
        assert all(p.allocation in ids for p in lr_profile.pareto)

    def test_profiler_prunes(self, lr_profile):
        assert 0 < len(lr_profile.pareto) < len(lr_profile.all_points)

    def test_cheapest_and_fastest(self, lr_profile):
        assert lr_profile.cheapest().cost_usd <= min(
            p.cost_usd for p in lr_profile.pareto
        )
        assert lr_profile.fastest().time_s <= min(p.time_s for p in lr_profile.pareto)

    def test_wo_pa_keeps_everything(self, lr_higgs):
        prof = ParetoProfiler(use_pareto=False).profile(lr_higgs)
        assert len(prof.pareto) == len(prof.all_points)

    def test_lookup(self, lr_profile):
        p = lr_profile.pareto[0]
        assert lr_profile.lookup(p.allocation) is p

    def test_lookup_missing(self, lr_profile):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            lr_profile.lookup(Allocation(1234, 512, StorageKind.S3))

    @given(
        name=st.sampled_from(sorted(WORKLOADS)),
        counts=st.lists(st.sampled_from(DEFAULT_FUNCTION_GRID), min_size=1,
                        max_size=8, unique=True),
        memories=st.lists(st.sampled_from(DEFAULT_MEMORY_GRID), min_size=1,
                          max_size=6, unique=True),
        storages=st.lists(st.sampled_from(list(StorageKind)), min_size=1,
                          unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_profiler_front_is_complete(self, name, counts, memories, storages):
        """Over a restricted space of a real workload, every evaluated
        allocation is on 𝒫, dominated by a member of 𝒫, or an exact
        (time, cost) duplicate of one; no member of 𝒫 is dominated."""
        space = AllocationSpace(function_counts=counts, memory_grid=memories,
                                storages=storages)
        try:
            prof = ParetoProfiler(space=space).profile(WORKLOADS[name])
        except InfeasibleAllocationError:
            assume(False)
        front_keys = {(q.time_s, q.cost_usd) for q in prof.pareto}
        for p in prof.all_points:
            assert (
                any(p is q for q in prof.pareto)
                or is_dominated(p, prof.pareto)
                or (p.time_s, p.cost_usd) in front_keys
            )
        for p in prof.pareto:
            assert not is_dominated(p, prof.all_points)
