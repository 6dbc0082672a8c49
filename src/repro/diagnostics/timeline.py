"""Normalized run observations — the diagnostics engine's input.

Every analysis in this package consumes one :class:`RunObservation`: a
per-epoch timeline plus the run's constraint context. Observations are
built from either

* a **live run** (:meth:`RunObservation.from_training_run`) — full
  fidelity, straight from the executor's :class:`EpochRecord`s; or
* a **saved capture** (:meth:`RunObservation.from_capture`) — the JSON
  telemetry document written by ``--telemetry`` plus, optionally, the
  Chrome trace written by ``--trace``, from which the epoch timeline is
  reconstructed span by span.

Both read the run's telemetry totals through one reader,
:func:`read_metrics`: the live side from the installed registry, the
capture side from the document.

Reconstruction reads the executor's ``epoch`` spans (track ``epochs``) as
windows and assigns the platform's load/compute/sync/cold/queue/worker
spans to them by containment; scheduler spans attach via their ``epoch``
argument. A trace with no ``epoch`` spans is rejected: the training
executor always writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.types import Allocation, EpochRecord
from repro.common.validation import is_finite
from repro.telemetry.exporters import snapshots_to_payload
from repro.tuning.plan import Objective

#: Telemetry families the diagnostics read by name.
QUEUE_WAIT = "repro_faas_queue_wait_seconds"
COLD_START_S = "repro_faas_cold_start_seconds_total"
BILLED_USD = "repro_faas_billed_usd_total"
CONCURRENCY_PEAK = "repro_faas_concurrency_peak_in_use"
RESTART_HIDDEN = "repro_scheduler_restart_hidden_seconds_total"
RESTART_VISIBLE = "repro_scheduler_restart_visible_seconds_total"


@dataclass(frozen=True, slots=True)
class EpochObservation:
    """One executed epoch, as seen by the diagnostics engine."""

    index: int
    alloc_label: str
    allocation: Allocation | None
    load_s: float
    compute_s: float
    sync_s: float
    cold_start_s: float
    queue_wait_s: float
    wall_s: float
    loss: float | None = None
    cost_usd: float | None = None
    scheduling_overhead_s: float = 0.0
    hidden_restart_overlap_s: float = 0.0
    restarted: bool = False
    worker_durations_s: tuple[float, ...] = ()

    @property
    def model_time_s(self) -> float:
        """The part of the epoch the analytical t'(θ) models (no cold/queue)."""
        return self.load_s + self.compute_s + self.sync_s


@dataclass
class RunObservation:
    """A full run: epoch timeline + constraint context + overhead totals.

    ``metrics`` holds each telemetry family's total and ``billed_usd`` the
    billed dollars by component (both empty without telemetry); ``peaks``
    holds the sampler's high-water marks when one was on.
    """

    epochs: list[EpochObservation]
    jct_s: float
    cost_usd: float | None = None
    meta: dict = field(default_factory=dict)
    workload_name: str | None = None
    objective: Objective | None = None
    budget_usd: float | None = None
    qos_s: float | None = None
    scheduling_overhead_s: float = 0.0
    hidden_restart_s: float = 0.0
    visible_restart_s: float | None = None
    n_restarts: int = 0
    converged: bool | None = None
    comm_overhead_s: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)
    billed_usd: dict[str, float] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ builders
    @classmethod
    def from_training_run(
        cls, run, registry=None, peaks: dict | None = None
    ) -> "RunObservation":
        """Full-fidelity observation from a live :class:`TrainingRun`.

        ``registry`` (a :class:`MetricsRegistry` that was installed while
        the run executed) supplies the visible restart overhead and the
        telemetry totals; without it the hidden side still comes from the
        epoch records. ``peaks`` are the live sampler's high-water marks.
        """
        result = run.result
        epochs = [_epoch_from_record(r) for r in result.epochs]
        hidden = sum(r.hidden_restart_overlap_s for r in result.epochs)
        metrics, billed = (
            read_metrics(snapshots_to_payload(registry.snapshot()))
            if registry is not None else ({}, {})
        )
        w = getattr(run, "workload", None)
        return cls(
            epochs=epochs,
            jct_s=result.jct_s,
            cost_usd=result.cost_usd,
            meta={
                "method": run.method,
                "workload": w.name if w is not None else "",
                "seed": getattr(run, "seed", 0),
            },
            workload_name=w.name if w is not None else None,
            objective=getattr(run, "objective", None),
            budget_usd=getattr(run, "budget_usd", None),
            qos_s=getattr(run, "qos_s", None),
            scheduling_overhead_s=result.scheduling_overhead_s,
            hidden_restart_s=hidden,
            visible_restart_s=metrics.get(RESTART_VISIBLE),
            n_restarts=result.n_restarts,
            converged=result.converged,
            comm_overhead_s=result.comm_overhead_s,
            metrics=metrics,
            billed_usd=billed,
            peaks=dict(peaks or {}),
        )

    @classmethod
    def from_capture(
        cls, telemetry: dict, trace: dict | None = None
    ) -> "RunObservation":
        """Observation from a saved telemetry JSON (+ optional Chrome trace)."""
        run = dict(telemetry.get("run", {}))
        meta = dict(telemetry.get("meta", {}))
        metrics, billed = read_metrics(telemetry.get("metrics", []))
        epochs: list[EpochObservation] = []
        if trace is not None:
            epochs = _epochs_from_trace(trace)
        objective = None
        if run.get("objective"):
            objective = Objective(run["objective"])
        jct = float(run.get("jct_s", 0.0))
        if jct == 0.0 and epochs:
            jct = sum(e.wall_s + e.scheduling_overhead_s for e in epochs)
        return cls(
            epochs=epochs,
            jct_s=jct,
            cost_usd=run.get("cost_usd"),
            meta=meta,
            workload_name=meta.get("workload") or None,
            objective=objective,
            budget_usd=run.get("budget_usd"),
            qos_s=run.get("qos_s"),
            scheduling_overhead_s=float(run.get("scheduling_overhead_s", 0.0)),
            hidden_restart_s=metrics.get(RESTART_HIDDEN, 0.0),
            visible_restart_s=metrics.get(RESTART_VISIBLE),
            n_restarts=int(run.get("n_restarts", 0)),
            converged=run.get("converged"),
            comm_overhead_s=float(run.get("comm_overhead_s", 0.0)),
            metrics=metrics,
            billed_usd=billed,
            peaks=dict(run.get("peaks") or {}),
        )


# --------------------------------------------------------------------------- helpers
def _epoch_from_record(r: EpochRecord) -> EpochObservation:
    return EpochObservation(
        index=r.index,
        alloc_label=r.allocation.describe(),
        allocation=r.allocation,
        load_s=r.time.load_s,
        compute_s=r.time.compute_s,
        sync_s=r.time.sync_s,
        cold_start_s=r.cold_start_s,
        queue_wait_s=r.queue_wait_s,
        wall_s=r.wall_s,
        loss=r.loss,
        cost_usd=r.cost.total_usd,
        scheduling_overhead_s=r.scheduling_overhead_s,
        hidden_restart_overlap_s=r.hidden_restart_overlap_s,
        restarted=r.restarted,
        worker_durations_s=tuple(r.worker_durations_s),
    )


def read_metrics(entries: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The one reader of telemetry metrics, live or captured.

    ``entries`` is a telemetry document's ``metrics`` list. Returns each
    family's summed sample values (a histogram's sums), and the billed
    dollars of :data:`BILLED_USD` keyed by their label values.
    """
    totals: dict[str, float] = {}
    billed: dict[str, float] = {}
    for entry in entries:
        key = "sum" if entry.get("type") == "histogram" else "value"
        samples = entry.get("samples", [])
        totals[entry["name"]] = sum(float(s.get(key, 0.0)) for s in samples)
        if entry["name"] == BILLED_USD:
            names = entry.get("labelnames", [])
            for s in samples:
                label = "/".join(s["labels"][n] for n in names) or "(all)"
                billed[label] = billed.get(label, 0.0) + float(s["value"])
    return totals, billed


#: Span arguments the timeline converts with ``int`` / ``float``.
_NUMERIC_ARGS = ("epoch", "rank", "loss", "cost_usd")


def _check_event(e: object) -> None:
    """Raise :class:`ValidationError` unless ``e`` is a trace event whose
    fields the timeline reads have the right types."""
    if not isinstance(e, dict):
        raise ValidationError(f"trace event must be an object, got {e!r:.40}")
    args = e.get("args", {})
    if not isinstance(args, dict):
        raise ValidationError(f"trace event 'args' must be an object, got {args!r:.40}")
    if not isinstance(e.get("tid", 0), (int, float, str)):
        raise ValidationError("trace event 'tid' must be a number or string")
    if e.get("ph") == "M":
        if e.get("name") == "thread_name" and not isinstance(args.get("name"), str):
            raise ValidationError("trace thread_name event needs a string args.name")
        return
    if e.get("ph") != "X":
        return
    for key in ("name", "cat"):
        if not isinstance(e.get(key, ""), str):
            raise ValidationError(f"trace span {key!r} must be a string")
    for key in ("ts", "dur"):
        if not is_finite(e.get(key, 0.0)):
            raise ValidationError(f"trace span {key!r} must be a finite number")
    for key in _NUMERIC_ARGS:
        if args.get(key) is not None and not is_finite(args[key]):
            raise ValidationError(f"trace span args.{key} must be a finite number")
    for key in ("epoch", "rank"):
        if args.get(key) is not None and not float(args[key]).is_integer():
            raise ValidationError(
                f"trace span args.{key} must be an integer, got {args[key]!r}"
            )


def _chrome_spans(trace: dict) -> list[dict]:
    """Normalize Chrome trace events to second-based span dicts."""
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else None
    if not isinstance(events, list):
        raise ValidationError("trace must be an object with a 'traceEvents' list")
    for e in events:
        _check_event(e)
    tracks = {
        e.get("tid"): e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        spans.append(
            {
                "name": e.get("name", ""),
                "cat": e.get("cat", ""),
                "start_s": float(e.get("ts", 0.0)) / 1e6,
                "duration_s": float(e.get("dur", 0.0)) / 1e6,
                "track": tracks.get(e.get("tid"), str(e.get("tid"))),
                "args": dict(e.get("args", {})),
            }
        )
    spans.sort(key=lambda s: (s["start_s"], s["track"], s["name"]))
    return spans


def _parse_alloc(label: str) -> Allocation | None:
    try:
        return Allocation.parse(label)
    except ValidationError:
        return None


def _epochs_from_trace(trace: dict) -> list[EpochObservation]:
    spans = _chrome_spans(trace)
    windows = [s for s in spans if s["cat"] == "epoch"]
    if not windows:
        raise ValidationError(
            "trace has no 'epoch' spans; pass the --trace written by the "
            "same training run"
        )
    return _epochs_from_windows(spans, windows)


def _epochs_from_windows(
    spans: list[dict], windows: list[dict]
) -> list[EpochObservation]:
    """Reconstruct epochs from executor ``epoch`` spans + contained spans."""
    sched = _scheduling_by_epoch(spans)
    out: list[EpochObservation] = []
    eps = 1e-9
    for w in sorted(windows, key=lambda s: s["start_s"]):
        idx = int(w["args"].get("epoch", len(out) + 1))
        t0, t1 = w["start_s"], w["start_s"] + w["duration_s"]
        inside = [
            s
            for s in spans
            if s["cat"] in ("load", "compute", "sync", "cold", "queue", "worker")
            and t0 - eps <= s["start_s"] < t1 - eps
        ]
        by_cat: dict[str, float] = {}
        for s in inside:
            by_cat[s["cat"]] = by_cat.get(s["cat"], 0.0) + s["duration_s"]
        workers = sorted(
            (s for s in inside if s["cat"] == "worker"),
            key=lambda s: int(s["args"].get("rank", 0)),
        )
        label = str(w["args"].get("allocation", ""))
        visible_s, hidden_s, restarted = sched.get(idx, (0.0, 0.0, False))
        out.append(
            EpochObservation(
                index=idx,
                alloc_label=label,
                allocation=_parse_alloc(label) if label else None,
                load_s=by_cat.get("load", 0.0),
                compute_s=by_cat.get("compute", 0.0),
                sync_s=by_cat.get("sync", 0.0),
                cold_start_s=by_cat.get("cold", 0.0),
                queue_wait_s=by_cat.get("queue", 0.0),
                wall_s=w["duration_s"],
                loss=_maybe_float(w["args"].get("loss")),
                cost_usd=_maybe_float(w["args"].get("cost_usd")),
                scheduling_overhead_s=visible_s,
                hidden_restart_overlap_s=hidden_s,
                restarted=restarted,
                worker_durations_s=tuple(s["duration_s"] for s in workers),
            )
        )
    return out


def _scheduling_by_epoch(spans: list[dict]) -> dict[int, tuple[float, float, bool]]:
    """epoch -> (visible scheduling s, hidden overlap s, restarted) from
    scheduler-track spans, keyed by their ``epoch`` argument."""
    out: dict[int, tuple[float, float, bool]] = {}
    for s in spans:
        if s["cat"] != "scheduling" or "epoch" not in s["args"]:
            continue
        idx = int(s["args"]["epoch"])
        visible, hidden, restarted = out.get(idx, (0.0, 0.0, False))
        if s["args"].get("hidden"):
            hidden += s["duration_s"]
        else:
            visible += s["duration_s"]
            if s["name"] == "restart":
                restarted = True
        out[idx] = (visible, hidden, restarted)
    return out


def _maybe_float(value) -> float | None:
    return None if value is None else float(value)
