"""Per-layer timing for the traced run, recorded from the benchmark's side.

``LayerTracer.install`` wraps the public functions at each layer boundary of
the program (nothing under ``src/`` changes) so that every call records its
wall time and its self time: the wall time minus the part covered by wrapped
calls nested inside it. Counts (refit history length, candidates evaluated,
kernel events, cold starts, bundle bytes) are read from the arguments or
return values at the same boundaries.

The hottest per-invocation functions (billing, the program's own tracer,
event bus and sampler) are aggregated as count plus time; the rest also keep
one span record per call. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict


def _count_history(counts, args, result, before):
    counts["training.refit.history"] += args[0].n_observations


def _count_reallocation(counts, args, result, before):
    if result.restart:
        counts["training.reallocations"] += 1


def _count_candidates(counts, args, result, before):
    counts["tuning.plan.candidates"] += result.stats.candidates_evaluated


def _count_stages(counts, args, result, before):
    counts["tuning.stages"] += len(result.stages)


def _count_points(counts, args, result, before):
    counts["analytical.profile.points"] += result.evaluated


def _count_cold_starts(counts, args, result, before):
    counts["faas.cold_starts"] += result.cold_starts


def _events_before(args):
    return args[0].events_processed


def _count_events(counts, args, result, before):
    counts["kernel.events"] += args[0].events_processed - before


def _count_bundle_bytes(counts, args, result, before):
    counts["runs.bundle_bytes"] += sum(len(a.text.encode("utf-8")) for a in result.artifacts)


# (module, class or None, attribute, layer, keep spans, pre-hook, post-hook)
HOOKS = (
    ("repro.training.online_predictor", "OnlinePredictor", "predict_total_epochs",
     "training.refit", True, None, _count_history),
    ("repro.training.adaptive_scheduler", "AdaptiveScheduler", "on_epoch_end",
     "training.scheduler", True, None, _count_reallocation),
    ("repro.training.executor", "TrainingExecutor", "run",
     "training.executor", True, None, None),
    ("repro.tuning.greedy_planner", "GreedyHeuristicPlanner", "plan",
     "tuning.plan", True, None, _count_candidates),
    ("repro.tuning.executor", "TuningExecutor", "run",
     "tuning.execute", True, None, _count_stages),
    ("repro.analytical.profiler", "ParetoProfiler", "profile",
     "analytical.profile", True, None, _count_points),
    ("repro.faas.platform", "FaaSPlatform", "execute_epoch",
     "faas.execute_epoch", True, None, _count_cold_starts),
    ("repro.faas.billing", "BillingMeter", "bill_invocation",
     "faas.billing", False, None, None),
    ("repro.kernel.core", "EventKernel", "run",
     "kernel.run", True, _events_before, _count_events),
    ("repro.baselines.siren", "SirenScheduler", "initial_decision",
     "baselines.decide", True, None, None),
    ("repro.baselines.siren", "SirenScheduler", "on_epoch_end",
     "baselines.decide", True, None, None),
    ("repro.baselines.cirrus", "CirrusScheduler", "initial_decision",
     "baselines.decide", True, None, None),
    ("repro.baselines.cirrus", "CirrusScheduler", "on_epoch_end",
     "baselines.decide", True, None, None),
    ("repro.baselines.lambdaml", "LambdaMLScheduler", "initial_decision",
     "baselines.decide", True, None, None),
    ("repro.baselines.lambdaml", "LambdaMLScheduler", "on_epoch_end",
     "baselines.decide", True, None, None),
    ("repro.baselines.siren", "SirenPolicy", "train",
     "baselines.siren_train", True, None, None),
    ("repro.training.offline_predictor", "OfflinePredictor", "predict_total_epochs",
     "baselines.offline_pilot", True, None, None),
    ("repro.telemetry.spans", "Tracer", "span",
     "telemetry.span", False, None, None),
    ("repro.slo.events", "EventBus", "emit",
     "slo.emit", False, None, None),
    ("repro.timeseries.core", "TimeSeriesSampler", "sample",
     "timeseries.sample", False, None, None),
    ("repro.runs", None, "save_run",
     "runs.save_run", True, None, _count_bundle_bytes),
)

JOB = "workflow.job"


class LayerTracer:
    """Wraps layer entry points; aggregates calls, wall time and self time."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, seconds covered by children]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, wall, self
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (job, layer, depth, start_s, wall_s, self_s)
        self.job_self: dict[int, dict[str, float]] = {}
        self.job_wall: dict[int, float] = {}
        self._job = -1
        self._patches: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, cls, attr, layer, keep, pre, post in HOOKS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls is not None else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, keep, pre, post))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, keep, pre, post):
        stack, totals, spans, counts = self._stack, self.totals, self.spans, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A layer re-entering itself (static Cirrus delegating to
            # LambdaML, a nested kernel drain) is one call of that layer.
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            before = pre(args) if pre is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                total = totals[layer]
                total[0] += 1
                total[1] += wall
                total[2] += wall - frame[1]
                if keep:
                    spans.append((self._job, layer, len(stack), t0, wall, wall - frame[1]))
            if post is not None:
                post(counts, args, result, before)
            return result

        return wrapper

    # -- the per-job root span -----------------------------------------------

    @contextlib.contextmanager
    def job(self, index: int):
        """Root span of one job; its self time is the job minus its layers."""
        if self._stack:
            raise RuntimeError("a job span cannot nest inside another span")
        before = {layer: total[2] for layer, total in self.totals.items()}
        self._job = index
        frame = [JOB, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self._stack.pop()
            total = self.totals[JOB]
            total[0] += 1
            total[1] += wall
            total[2] += wall - frame[1]
            self.spans.append((index, JOB, 0, t0, wall, wall - frame[1]))
            self.job_wall[index] = wall
            self.job_self[index] = {
                layer: total[2] - before.get(layer, 0.0)
                for layer, total in self.totals.items()
                if total[2] != before.get(layer, 0.0)
            }
            self._job = -1

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit), as BENCHMARK.json lists them."""
        t, c = self.totals, self.counts

        def calls(layer):
            return t[layer][0] if layer in t else 0

        def self_s(layer):
            return t[layer][2] if layer in t else 0.0

        def per_call(layer, scale):
            n = calls(layer)
            return self_s(layer) / n * scale if n else 0.0

        refit_calls = calls("training.refit")
        plan_self = self_s("tuning.plan")
        events = c["kernel.events"]
        return {
            "training.refit.calls": (refit_calls, "count"),
            "training.refit.self_s": (self_s("training.refit"), "s"),
            "training.refit.us_per_call": (per_call("training.refit", 1e6), "us"),
            "training.refit.history_mean": (
                c["training.refit.history"] / refit_calls if refit_calls else 0.0, "epochs"),
            "training.scheduler.self_s": (self_s("training.scheduler"), "s"),
            "training.reallocations": (c["training.reallocations"], "count"),
            "training.executor.self_s": (self_s("training.executor"), "s"),
            "tuning.plan.calls": (calls("tuning.plan"), "count"),
            "tuning.plan.self_s": (plan_self, "s"),
            "tuning.plan.candidates": (c["tuning.plan.candidates"], "count"),
            "tuning.plan.candidates_per_s": (
                c["tuning.plan.candidates"] / plan_self if plan_self else 0.0, "1/s"),
            "tuning.execute.self_s": (self_s("tuning.execute"), "s"),
            "tuning.stages": (c["tuning.stages"], "count"),
            "analytical.profile.calls": (calls("analytical.profile"), "count"),
            "analytical.profile.self_s": (self_s("analytical.profile"), "s"),
            "analytical.profile.points": (c["analytical.profile.points"], "count"),
            "faas.execute_epoch.calls": (calls("faas.execute_epoch"), "count"),
            "faas.execute_epoch.self_s": (self_s("faas.execute_epoch"), "s"),
            "faas.execute_epoch.us_per_call": (per_call("faas.execute_epoch", 1e6), "us"),
            "faas.cold_starts": (c["faas.cold_starts"], "count"),
            "faas.billing.calls": (calls("faas.billing"), "count"),
            "faas.billing.self_s": (self_s("faas.billing"), "s"),
            "kernel.events": (events, "count"),
            "kernel.run.self_s": (self_s("kernel.run"), "s"),
            "kernel.ns_per_event": (
                self_s("kernel.run") / events * 1e9 if events else 0.0, "ns"),
            "baselines.decide.calls": (calls("baselines.decide"), "count"),
            "baselines.decide.self_s": (self_s("baselines.decide"), "s"),
            "baselines.siren_train.self_s": (self_s("baselines.siren_train"), "s"),
            "baselines.offline_pilot.self_s": (self_s("baselines.offline_pilot"), "s"),
            "faults.injected": (c["faults.injected"], "count"),
            "faults.recoveries": (c["faults.recoveries"], "count"),
            "telemetry.span.calls": (calls("telemetry.span"), "count"),
            "telemetry.span.self_s": (self_s("telemetry.span"), "s"),
            "slo.emit.calls": (calls("slo.emit"), "count"),
            "slo.emit.self_s": (self_s("slo.emit"), "s"),
            "timeseries.sample.calls": (calls("timeseries.sample"), "count"),
            "timeseries.sample.self_s": (self_s("timeseries.sample"), "s"),
            "runs.save_run.self_s": (self_s("runs.save_run"), "s"),
            "runs.bundle_bytes": (c["runs.bundle_bytes"], "B"),
            "workflow.job.self_s": (self_s(JOB), "s"),
        }
