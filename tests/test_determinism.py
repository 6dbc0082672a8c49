"""Cross-component determinism: one seed reproduces everything bit-exactly.

Reproducibility is a deliverable of this repository: every stochastic
component draws from CRC32-labelled seed streams (`common.rng.stream_for`),
so results are identical across processes and platforms. These tests pin
that contract at every layer.
"""

import json

import numpy as np
import pytest

from repro.common.types import StorageKind
from repro.profiling import Profiler, get_profiler, set_profiler
from repro.timeseries import TimeSeriesSampler, get_sampler, set_sampler
from repro.telemetry.exporters import to_json
from repro.telemetry.metrics import MetricsRegistry
from repro.ml.curves import LossCurveSampler
from repro.ml.models import workload
from repro.tuning.plan import Objective
from repro.tuning.sha import SHAEngine, SHASpec
from repro.workflow.job import training_envelope, tuning_envelope
from repro.workflow.runner import profile_workload, run_training, run_tuning


class TestLayerDeterminism:
    def test_curve_sampler_bit_exact(self, mobilenet):
        kw = dict(seed=11, run_label="d", anchor_target=mobilenet.target_loss)
        a = LossCurveSampler(mobilenet.curve_params(), **kw).trajectory(50)
        b = LossCurveSampler(mobilenet.curve_params(), **kw).trajectory(50)
        np.testing.assert_array_equal(a, b)

    def test_profiling_deterministic(self, lr_higgs):
        a = profile_workload(lr_higgs)
        b = profile_workload(lr_higgs)
        assert [p.allocation for p in a.pareto] == [p.allocation for p in b.pareto]
        assert [p.time_s for p in a.pareto] == [p.time_s for p in b.pareto]

    def test_sha_trial_population_deterministic(self, lr_higgs):
        a = SHAEngine(SHASpec(32, 2, 2), lr_higgs, seed=4)
        b = SHAEngine(SHASpec(32, 2, 2), lr_higgs, seed=4)
        assert [t.learning_rate for t in a.trials] == [
            t.learning_rate for t in b.trials
        ]

    @pytest.mark.parametrize("method", ["ce-scaling", "siren", "cirrus"])
    def test_training_bit_exact_per_method(self, method, mobilenet, mobilenet_profile):
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        kw = dict(
            method=method, objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=9, max_epochs=15, profile=mobilenet_profile,
        )
        a = run_training(mobilenet, **kw).result
        b = run_training(mobilenet, **kw).result
        assert a.jct_s == b.jct_s
        assert a.cost_usd == b.cost_usd
        assert [e.allocation for e in a.epochs] == [e.allocation for e in b.epochs]
        assert [e.loss for e in a.epochs] == [e.loss for e in b.epochs]

    def test_tuning_bit_exact(self, lr_higgs, lr_profile):
        spec = SHASpec(32, 2, 2)
        budget = tuning_envelope(lr_profile, spec).budget(1.3)
        kw = dict(
            method="ce-scaling", objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=5, profile=lr_profile,
        )
        a = run_tuning(lr_higgs, spec, **kw)
        b = run_tuning(lr_higgs, spec, **kw)
        assert a.result.jct_s == b.result.jct_s
        assert a.result.winner.index == b.result.winner.index
        assert [p.allocation for p in a.plan.stages] == [
            p.allocation for p in b.plan.stages
        ]

    def test_seeds_actually_differ(self, mobilenet, mobilenet_profile):
        """Determinism must come from the seed, not from ignoring it."""
        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        results = {
            seed: run_training(
                mobilenet, budget_usd=budget, seed=seed, max_epochs=20,
                profile=mobilenet_profile,
            ).result.jct_s
            for seed in (1, 2, 3)
        }
        assert len(set(results.values())) == 3

    def test_telemetry_export_insertion_order_independent(self):
        """Exports sort every unordered collection; insertion order is noise.

        Check REP007 of `tests/test_source_invariants.py` bans raw set
        iteration on export paths; this pins the behaviour the check
        protects — registering the same metrics in two different orders
        (and labelling children in two different orders) must produce
        byte-identical JSON.
        """

        def build(order: int) -> MetricsRegistry:
            reg = MetricsRegistry()
            names = ["epochs_total", "cost_usd", "alloc_changes_total"]
            labels = [{"phase": "tune"}, {"phase": "train"}, {"phase": "warm"}]
            if order:
                names, labels = names[::-1], labels[::-1]
            for name in names:
                counter = reg.counter(name, labelnames=("phase",))
                for kv in labels:
                    counter.labels(**kv).inc(3.5)
            return reg

        a = to_json(build(0).snapshot(), run={"jct_s": 1.0}, meta={"seed": 0})
        b = to_json(build(1).snapshot(), run={"jct_s": 1.0}, meta={"seed": 0})
        assert a == b

    def test_storage_pin_does_not_leak_state(self, mobilenet):
        """Profiling with a pin never mutates the default profile."""
        base_before = profile_workload(mobilenet)
        profile_workload(mobilenet, storage_pin=StorageKind.S3)
        base_after = profile_workload(mobilenet)
        assert [p.allocation for p in base_before.pareto] == [
            p.allocation for p in base_after.pareto
        ]


class TestHotPathProfilerDeterminism:
    """The hot-path profiler is observational: on or off, same bytes out.

    Same contract the telemetry collectors carry (see
    ``tests/telemetry/test_determinism.py``): profiler phases never consume
    randomness and never branch simulation logic.
    """

    @staticmethod
    def _fingerprint(result) -> str:
        return json.dumps(
            {
                "jct_s": result.jct_s,
                "cost_usd": result.cost_usd,
                "epochs": [
                    [
                        e.index,
                        e.allocation.describe(),
                        e.loss,
                        e.cost.total_usd,
                        e.time.total_s,
                        e.scheduling_overhead_s,
                    ]
                    for e in result.epochs
                ],
            },
            sort_keys=True,
        )

    def _train(self, w, profile):
        budget = training_envelope(w, profile).budget(2.5)
        return run_training(
            w, method="ce-scaling", objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=9, max_epochs=15, profile=profile,
        ).result

    def test_training_identical_with_profiler_on_and_off(
        self, mobilenet, mobilenet_profile
    ):
        baseline = self._fingerprint(self._train(mobilenet, mobilenet_profile))
        prev = get_profiler()
        profiler = Profiler()
        set_profiler(profiler)
        try:
            profiled = self._fingerprint(
                self._train(mobilenet, mobilenet_profile)
            )
        finally:
            set_profiler(prev)
            profiler.close()
        assert profiled == baseline
        # Guard against the trivial pass: the profiler saw the run.
        assert ("train/run",) in profiler.frames

    def test_tuning_identical_with_profiler_on_and_off(
        self, lr_higgs, lr_profile
    ):
        spec = SHASpec(32, 2, 2)
        budget = tuning_envelope(lr_profile, spec).budget(1.3)
        kw = dict(
            method="ce-scaling", objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=5, profile=lr_profile,
        )
        a = run_tuning(lr_higgs, spec, **kw)
        prev = get_profiler()
        profiler = Profiler()
        set_profiler(profiler)
        try:
            b = run_tuning(lr_higgs, spec, **kw)
        finally:
            set_profiler(prev)
            profiler.close()
        assert a.result.jct_s == b.result.jct_s
        assert a.result.cost_usd == b.result.cost_usd
        assert a.result.winner.index == b.result.winner.index
        assert [p.allocation for p in a.plan.stages] == [
            p.allocation for p in b.plan.stages
        ]
        assert ("planner/plan",) in profiler.frames


class TestTimeSeriesSamplerDeterminism:
    """The time-series sampler is observational: on or off, same bytes out.

    Same contract the telemetry collectors and hot-path profiler carry:
    sampling sites never consume randomness and never branch simulation
    logic, so a run is byte-identical with the sampler installed or not —
    and two sampled runs produce byte-identical captures.
    """

    def _train(self, w, profile):
        budget = training_envelope(w, profile).budget(2.5)
        return run_training(
            w, method="ce-scaling", objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=9, max_epochs=15, profile=profile,
        ).result

    def test_training_identical_with_sampler_on_and_off(
        self, mobilenet, mobilenet_profile
    ):
        fingerprint = TestHotPathProfilerDeterminism._fingerprint
        baseline = fingerprint(self._train(mobilenet, mobilenet_profile))
        prev = get_sampler()
        sampler = TimeSeriesSampler()
        set_sampler(sampler)
        try:
            sampled = fingerprint(self._train(mobilenet, mobilenet_profile))
        finally:
            set_sampler(prev)
        assert sampled == baseline
        # Guard against the trivial pass: the sampler saw the run.
        assert "train.allocation.m" in sampler.series
        assert "platform.inflight" in sampler.series

    def test_tuning_identical_with_sampler_on_and_off(self, lr_higgs, lr_profile):
        spec = SHASpec(32, 2, 2)
        budget = tuning_envelope(lr_profile, spec).budget(1.3)
        kw = dict(
            method="ce-scaling", objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=5, profile=lr_profile,
        )
        a = run_tuning(lr_higgs, spec, **kw)
        prev = get_sampler()
        sampler = TimeSeriesSampler()
        set_sampler(sampler)
        try:
            b = run_tuning(lr_higgs, spec, **kw)
        finally:
            set_sampler(prev)
        assert a.result.jct_s == b.result.jct_s
        assert a.result.cost_usd == b.result.cost_usd
        assert a.result.winner.index == b.result.winner.index
        assert "tune.survivors" in sampler.series

    def test_capture_bit_exact_across_runs(self, mobilenet, mobilenet_profile):
        from repro.runs import Instruments

        captures = []
        for _ in range(2):
            with Instruments(kinds={"timeseries"}) as ins:
                self._train(mobilenet, mobilenet_profile)
            captures.append(ins.texts["timeseries"])
        assert captures[0] == captures[1]

    def test_telemetry_bytes_identical_with_sampler_on_and_off(
        self, mobilenet, mobilenet_profile
    ):
        """The telemetry export itself must not see the sampler."""
        from repro.telemetry import get_registry, set_registry
        from repro.telemetry.metrics import MetricsRegistry

        def capture(with_sampler: bool) -> str:
            registry = MetricsRegistry()
            prev_reg = get_registry()
            set_registry(registry)
            prev = get_sampler()
            if with_sampler:
                set_sampler(TimeSeriesSampler())
            try:
                result = self._train(mobilenet, mobilenet_profile)
            finally:
                set_sampler(prev)
                set_registry(prev_reg)
            return to_json(
                registry.snapshot(),
                run={"jct_s": result.jct_s, "cost_usd": result.cost_usd},
                meta={"seed": 9},
            )

        assert capture(False) == capture(True)
