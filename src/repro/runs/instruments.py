"""One context for every run capture: install, run, render, write, bundle.

:class:`Instruments` decides what a run captures, where each document goes
and in what order the collectors go in. Capture kinds are named by their
:data:`~repro.runs.bundle.ARTIFACT_KINDS` keys; a kind with a path is
captured and written there, a kind without one is only collected::

    with Instruments(stamp, kinds=BUNDLE_KINDS,
                     paths={"trace": "out.trace.json"}) as ins:
        run = run_training("lr-higgs", budget_usd=2.0)
        ins.set_run_summary({"jct_s": run.result.jct_s, ...})
    ins.save(RunStore(".repro/runs"))   # the texts just written, bundled

Entering installs the collectors in one fixed order: the metrics registry
and span tracer first (the SLO guard mirrors alerts into whichever are live
when it is built), then the event bus with its log and guard, then the
profiler, then the sampler (which subscribes its marker hook to the live
bus). Exiting restores every previous collector, so contexts nest. A clean
exit renders each document once and writes each requested path; a crash
writes nothing.

Capture documents carry the stamp without its argv: output paths and store
locations must not reach the artifact bytes the run id digests. Only the
bundle manifest keeps the full stamp.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.common.errors import ValidationError
from repro.common.meta import coerce_meta
from repro.common.validation import require_parent_dir
from repro.profiling import augment_chrome_trace, get_profiler, set_profiler, to_collapsed
from repro.profiling import capture_payload as profile_payload
from repro.profiling import to_json as profile_json
from repro.profiling.core import Profiler
from repro.runs.bundle import ARTIFACT_KINDS, RunBundle
from repro.slo.events import EventBus, EventLog, get_event_bus, set_event_bus
from repro.slo.guard import SLOGuard
from repro.slo.report import evaluate_guard
from repro.slo.spec import SLOSpec
from repro.telemetry import get_registry, get_tracer, set_registry, set_tracer
from repro.telemetry.exporters import to_json as telemetry_json
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer
from repro.timeseries import get_sampler, set_sampler
from repro.timeseries import capture_payload as timeseries_payload
from repro.timeseries import to_json as timeseries_json
from repro.timeseries.core import TimeSeriesSampler

#: The kinds a run bundle collects even when no file was asked for.
BUNDLE_KINDS = frozenset({"telemetry", "trace", "events", "timeseries"})


class Instruments:
    """Context manager that installs a run's collectors and renders them.

    Args:
        stamp: a :class:`~repro.runs.provenance.ProvenanceStamp` or a plain
            meta dict for every document's ``meta`` block.
        kinds: capture kinds to collect without writing a file.
        paths: capture kind -> output path; ``None`` paths are ignored.
            ``"faults"`` names where the fault report goes. A path whose
            directory does not exist raises :class:`ValidationError`.
        slo: an :class:`SLOSpec` to guard the run against (implies the
            ``slo`` and ``events`` captures).

    With nothing requested the context installs nothing and writes
    nothing, so callers never branch. Collectors (``registry``,
    ``tracer``, ``log``, ``guard``, ``profiler``, ``sampler``) are ``None``
    when off. After a clean exit ``texts`` holds every rendered document
    by artifact kind, ``payloads`` the profile and timeseries documents,
    and ``slo_report`` the guard's report under the full stamp.
    """

    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None
    log: EventLog | None = None
    guard: SLOGuard | None = None
    profiler: Profiler | None = None
    sampler: TimeSeriesSampler | None = None
    ledger = None
    slo_report = None

    def __init__(
        self,
        stamp=None,
        kinds=(),
        paths: dict | None = None,
        slo: SLOSpec | None = None,
    ) -> None:
        self.paths = {kind: Path(p) for kind, p in (paths or {}).items() if p}
        self.kinds = frozenset(kinds) | frozenset(self.paths)
        if slo is not None:
            self.kinds |= {"slo"}
        unknown = sorted(self.kinds - ARTIFACT_KINDS.keys())
        if unknown:
            raise ValidationError(f"unknown capture kind(s) {', '.join(unknown)}")
        if "slo" in self.kinds and slo is None:
            raise ValidationError("the slo capture needs an SLO spec")
        for kind, path in self.paths.items():
            require_parent_dir(path, f"the {kind} capture")
        self.stamp = stamp
        if getattr(stamp, "argv", None):
            stamp = dataclasses.replace(stamp, argv=())
        self.meta = coerce_meta(stamp)
        self.spec = slo
        self.texts: dict[str, str] = {}
        self.payloads: dict[str, dict] = {}
        self._plan = None
        self._run_summary: dict = {}
        self._restore: list[tuple] = []

    def set_run_summary(self, summary: dict, ledger=None, plan=None) -> None:
        """Attach the run's headline numbers and, for a faulted run, its
        fault ledger and plan."""
        self._run_summary = dict(summary)
        self.ledger, self._plan = ledger, plan

    def save(self, store) -> RunBundle:
        """Bundle every rendered document into ``store``; returns the bundle."""
        import repro.runs  # resolved per call, so a wrapped save_run is seen

        return repro.runs.save_run(
            store, self.stamp, self.texts, summary=self._run_summary
        )

    def _install(self, get, set_, collector) -> None:
        self._restore.append((set_, get()))
        set_(collector)

    def __enter__(self) -> "Instruments":
        kinds = self.kinds
        if "telemetry" in kinds:
            self.registry = MetricsRegistry()
            self._install(get_registry, set_registry, self.registry)
        if "trace" in kinds:
            self.tracer = Tracer()
            self._install(get_tracer, set_tracer, self.tracer)
        if kinds & {"events", "slo"}:
            bus = EventBus()
            self.log = EventLog(meta=self.meta)
            if self.spec is not None:
                self.guard = SLOGuard(self.spec, log=self.log)
                bus.subscribe(self.guard.on_event)
            else:
                bus.subscribe(self.log.record)
            self._install(get_event_bus, set_event_bus, bus)
        if kinds & {"profile", "flamegraph"}:
            self.profiler = Profiler()
            self._install(get_profiler, set_profiler, self.profiler)
        if "timeseries" in kinds:
            sampler = self.sampler = TimeSeriesSampler()
            self._install(get_sampler, set_sampler, sampler)
            bus = get_event_bus()
            if bus.enabled:
                bus.subscribe(
                    lambda event: sampler.mark(event.kind, event.t_s, label=event.scope)
                )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._restore:
            set_, previous = self._restore.pop()
            set_(previous)
        if self.profiler is not None:
            self.profiler.close()
        if exc_type is not None:
            return  # a crash writes nothing
        self._render()
        for kind, path in self.paths.items():
            if kind == "trace" and self.profiler is not None:
                # The file gets the profiler's host-time frames; the bundled
                # trace stays the deterministic simulated timeline.
                path.write_text(augment_chrome_trace(self.texts[kind], self.profiler))
            elif kind in self.texts:
                path.write_text(self.texts[kind])

    def _render(self) -> None:
        texts, meta = self.texts, self.meta
        if self.registry is not None:
            texts["telemetry"] = telemetry_json(
                self.registry.snapshot(), run=self._run_summary, meta=meta
            )
        if self.tracer is not None:
            texts["trace"] = self.tracer.to_chrome_trace()
        if self.log is not None:
            texts["events"] = self.log.to_jsonl()
        if self.guard is not None:
            self.slo_report = evaluate_guard(self.guard, meta=self.stamp)
            texts["slo"] = dataclasses.replace(self.slo_report, meta=meta).to_json()
        if self.profiler is not None:
            payload = self.payloads["profile"] = profile_payload(self.profiler, meta=meta)
            texts["profile"] = profile_json(payload)
            texts["flamegraph"] = to_collapsed(payload)
        if self.sampler is not None:
            payload = self.payloads["timeseries"] = timeseries_payload(self.sampler, meta=meta)
            texts["timeseries"] = timeseries_json(payload)
        if self.ledger is not None:
            plan = self._plan.to_payload() if self._plan is not None else None
            texts["faults"] = self.ledger.to_json(plan, meta=meta)
