"""Normalized run observations — the diagnostics engine's input.

Every analysis in this package consumes one :class:`RunObservation`: a
per-epoch timeline plus the run's constraint context. It has one builder,
:meth:`RunObservation.from_capture`, which reads

* a **telemetry document** — the JSON written by ``--telemetry``, or the
  one a live :class:`~repro.runs.Instruments` context renders — through
  :func:`read_metrics`, for the run summary and the telemetry totals; and
* optionally the run's **event log** (``repro-events/v1``, written by
  ``--events``) through :func:`read_epochs`, for the epoch timeline.

Each ``epoch_done`` row carries its epoch's
:class:`~repro.common.types.EpochRecord` fields as the training executor
knows them when the epoch ends; the restart fields come from the
``plan_chosen`` / ``restart_begun`` rows of the same epoch that follow it. Live ``repro diagnose`` runs the job under an
``Instruments`` context and reads its event log the same way, so a saved
capture and a live run tell the same story, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ValidationError
from repro.common.types import Allocation, EpochCostBreakdown, EpochTimeBreakdown
from repro.common.validation import is_finite, number_field
from repro.slo.events import EventLog
from repro.tuning.plan import Objective

#: Telemetry families the diagnostics read by name.
COLD_START_S = "repro_faas_cold_start_seconds_total"
BILLED_USD = "repro_faas_billed_usd_total"
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
    wall_s: float
    loss: float | None = None
    cost_usd: float | None = None
    scheduling_overhead_s: float = 0.0
    hidden_restart_overlap_s: float = 0.0
    restarted: bool = False
    worker_durations_s: tuple[float, ...] = ()

    @property
    def model_time_s(self) -> float:
        """The part of the epoch the analytical t'(θ) models (no cold start)."""
        return self.load_s + self.compute_s + self.sync_s


@dataclass
class RunObservation:
    """A full run: epoch timeline + constraint context + overhead totals.

    ``metrics`` holds each telemetry family's total and ``billed_usd`` the
    billed dollars by component (both empty without telemetry).
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

    @classmethod
    def from_capture(
        cls, telemetry: dict, events: EventLog | None = None
    ) -> "RunObservation":
        """Observation from a telemetry document and, optionally, the run's
        event log for the epoch timeline.

        Raises :class:`ValidationError` when ``events`` holds no
        ``epoch_done`` row or a malformed one, or when it comes from
        another run: its header ``meta`` differs from the telemetry's, or,
        for a training run, its epochs' costs do not sum to the run's
        ``cost_usd`` (the sum is in emission order, so the run's own log
        matches bit for bit).
        """
        run = dict(telemetry.get("run", {}))
        meta = dict(telemetry.get("meta", {}))
        if events is not None:
            _same_run(meta, events.meta)
        metrics, billed = read_metrics(telemetry.get("metrics", []))
        epochs = read_epochs(events) if events is not None else []
        if epochs and "n_epochs" in run:
            _same_cost(run.get("cost_usd"), epochs)
        objective = None
        if run.get("objective"):
            objective = Objective(run["objective"])
        jct = float(run.get("jct_s", 0.0))
        if jct == 0.0 and epochs:
            jct = sum(e.wall_s + e.scheduling_overhead_s for e in epochs)
        hidden = (
            sum(e.hidden_restart_overlap_s for e in epochs) if epochs
            else metrics.get(RESTART_HIDDEN, 0.0)
        )
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
            hidden_restart_s=hidden,
            visible_restart_s=metrics.get(RESTART_VISIBLE),
            n_restarts=int(run.get("n_restarts", 0)),
            converged=run.get("converged"),
            comm_overhead_s=float(run.get("comm_overhead_s", 0.0)),
            metrics=metrics,
            billed_usd=billed,
        )


def _same_run(telemetry_meta: dict, log_meta: dict) -> None:
    """Raise :class:`ValidationError` naming the first ``meta`` key on
    which a telemetry document and an event log disagree."""
    for key in sorted(set(telemetry_meta) | set(log_meta)):
        if telemetry_meta.get(key) != log_meta.get(key):
            raise ValidationError(
                f"event log meta '{key}' is {log_meta.get(key)!r:.60} but the "
                f"telemetry's is {telemetry_meta.get(key)!r:.60}; pass the "
                "--events log written by the same run"
            )


def _same_cost(cost_usd, epochs: list[EpochObservation]) -> None:
    """Raise :class:`ValidationError` naming both values unless the epochs'
    costs sum to a training run's ``cost_usd``: a clean and a faulted run
    of the same arguments share their ``meta`` and may share their epoch
    count, but not their bill."""
    total = sum((e.cost_usd for e in epochs), 0.0)
    if total != cost_usd:
        raise ValidationError(
            f"event log epochs cost {total!r} but the telemetry's run cost "
            f"{cost_usd!r:.40}; pass the --events log written by the same run"
        )


# --------------------------------------------------------------------------- readers
def read_metrics(entries: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The one reader of telemetry metrics.

    ``entries`` is a telemetry document's ``metrics`` list. Returns each
    family's summed sample values (a histogram's sums; ``0.0`` for a
    family with no samples), and the billed dollars of :data:`BILLED_USD`
    keyed by their label values.
    """
    totals: dict[str, float] = {}
    billed: dict[str, float] = {}
    for entry in entries:
        key = "sum" if entry.get("type") == "histogram" else "value"
        samples = entry.get("samples", [])
        totals[entry["name"]] = sum((float(s.get(key, 0.0)) for s in samples), 0.0)
        if entry["name"] == BILLED_USD:
            names = entry.get("labelnames", [])
            for s in samples:
                label = "/".join(s["labels"][n] for n in names) or "(all)"
                billed[label] = billed.get(label, 0.0) + float(s["value"])
    return totals, billed


#: The ``epoch_done`` fields of an epoch's time and cost breakdowns.
_TIME_FIELDS = ("load_s", "compute_s", "sync_s")
_COST_FIELDS = ("invocation_usd", "compute_usd", "storage_usd")


def read_epochs(log: EventLog) -> list[EpochObservation]:
    """The one reader of the epoch timeline: one :class:`EpochObservation`
    per ``epoch_done`` row of ``log``, in emission order.

    ``wall_s`` and ``cost_usd`` are rebuilt exactly as the properties of
    :class:`~repro.common.types.EpochRecord` compute them. A restart of
    epoch *i* is its ``restart_begun`` row; its visible scheduling overhead
    adds the search time of the ``plan_chosen`` row of epoch *i* before it.
    """
    epochs: list[EpochObservation] = []
    search_s = 0.0
    for seq, event in enumerate(log.events):
        data, name = event.data, f"event log row {seq} ({event.kind})"
        if event.kind == "epoch_done":
            epochs.append(_epoch_from_row(data, name))
            search_s = 0.0
        elif not epochs or data.get("epoch") != epochs[-1].index:
            continue
        elif event.kind == "plan_chosen":
            search_s = number_field(data, "search_overhead_s", name)
        elif event.kind == "restart_begun":
            epochs[-1] = replace(
                epochs[-1],
                restarted=True,
                scheduling_overhead_s=search_s + number_field(data, "visible_s", name),
                hidden_restart_overlap_s=number_field(data, "hidden_s", name),
            )
    if not epochs:
        raise ValidationError(
            "event log has no epoch_done rows; pass the --events log written "
            "by the same training run"
        )
    return epochs


def _epoch_from_row(data: dict, name: str) -> EpochObservation:
    """One epoch from its ``epoch_done`` payload; raises
    :class:`ValidationError` naming the row on a missing or bad field."""
    index = number_field(data, "epoch", name)
    if not index.is_integer():
        raise ValidationError(f"{name} field 'epoch' must be an integer, got {index!r}")
    label = data.get("allocation")
    if not isinstance(label, str):
        raise ValidationError(f"{name} field 'allocation' must be a string, got {label!r:.40}")
    # A list once rendered; the live log holds the emitted tuple.
    workers = data.get("worker_durations_s")
    if not isinstance(workers, (list, tuple)) or not all(is_finite(v) for v in workers):
        raise ValidationError(
            f"{name} field 'worker_durations_s' must be a list of finite numbers"
        )
    time = EpochTimeBreakdown(*(number_field(data, k, name) for k in _TIME_FIELDS))
    cost = EpochCostBreakdown(*(number_field(data, k, name) for k in _COST_FIELDS))
    cold_s = number_field(data, "cold_start_s", name)
    return EpochObservation(
        index=int(index),
        alloc_label=label,
        allocation=Allocation.parse(label),
        load_s=time.load_s,
        compute_s=time.compute_s,
        sync_s=time.sync_s,
        cold_start_s=cold_s,
        wall_s=cold_s + time.total_s,
        loss=number_field(data, "loss", name),
        cost_usd=cost.total_usd,
        worker_durations_s=tuple(float(v) for v in workers),
    )
