"""Critical-path extraction: where did the JCT actually go?

Decomposes a run's job completion time into the five components that can
sit on the critical path — cold start, dataset load, gradient compute,
parameter sync, and visible scheduling/restart overhead — and
ranks the individual (epoch, component) spans so the top-k bottlenecks
are immediately visible. Also splits restart overhead into its hidden
(overlapped, Fig. 8) and visible shares, quantifying how much the
delayed-restart mechanism actually saved.

The decomposition is exact for live runs: the five component totals sum to
the JCT (cold + load + compute + sync per epoch equals the epoch's wall
time, and the scheduler's search/restart time is the only other thing the
executor adds to the clock). A run observed without an epoch timeline
takes cold-start and sync from its telemetry totals; load and
compute stay 0, so ``accounted_s`` falls short of the JCT. Sync is never
less than the run's ``comm_overhead_s``, which also counts a workflow's
tuning stages, whose sync no epoch row carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diagnostics.timeline import COLD_START_S, RunObservation

#: Order in which components appear in reports (roughly: per-epoch
#: lifecycle order, scheduling last).
COMPONENT_ORDER = ("cold-start", "load", "compute", "sync", "scheduling")


@dataclass(frozen=True, slots=True)
class ComponentShare:
    """One critical-path component's total contribution to JCT."""

    component: str
    seconds: float
    share: float  # fraction of JCT


@dataclass(frozen=True, slots=True)
class BottleneckSpan:
    """A single (epoch, component) span, ranked by duration."""

    epoch: int
    component: str
    allocation: str
    seconds: float
    share: float  # fraction of JCT


@dataclass(frozen=True, slots=True)
class RestartOverheadSplit:
    """Where allocation-switch overhead went (Fig. 8 accounting)."""

    hidden_s: float
    visible_s: float

    @property
    def total_s(self) -> float:
        return self.hidden_s + self.visible_s

    @property
    def hidden_share(self) -> float:
        """Fraction of restart overhead kept off the critical path."""
        return self.hidden_s / self.total_s if self.total_s > 0 else 0.0


@dataclass(frozen=True, slots=True)
class CriticalPathAnalysis:
    """The full JCT decomposition for one run."""

    jct_s: float
    components: tuple[ComponentShare, ...]
    bottlenecks: tuple[BottleneckSpan, ...]
    restart: RestartOverheadSplit
    n_restarts: int

    @property
    def accounted_s(self) -> float:
        """Sum of all component seconds; equals jct_s on live runs, and
        falls short of it without an epoch timeline."""
        return sum(c.seconds for c in self.components)

    @property
    def dominant(self) -> ComponentShare:
        return max(self.components, key=lambda c: c.seconds)


def analyze_critical_path(obs: RunObservation, top_k: int = 5) -> CriticalPathAnalysis:
    """Decompose the run's JCT and rank its top-k bottleneck spans."""
    totals = {name: 0.0 for name in COMPONENT_ORDER}
    spans: list[BottleneckSpan] = []
    jct = obs.jct_s if obs.jct_s > 0 else 1e-12
    for e in obs.epochs:
        per_epoch = (
            ("cold-start", e.cold_start_s),
            ("load", e.load_s),
            ("compute", e.compute_s),
            ("sync", e.sync_s),
        )
        for name, seconds in per_epoch:
            totals[name] += seconds
            if seconds > 0:
                spans.append(
                    BottleneckSpan(
                        epoch=e.index,
                        component=name,
                        allocation=e.alloc_label,
                        seconds=seconds,
                        share=seconds / jct,
                    )
                )
    # The run-level scheduling total (initial search + per-epoch searches +
    # visible restarts) is authoritative; per-epoch records only carry it
    # for restarted epochs.
    totals["scheduling"] = obs.scheduling_overhead_s
    if not obs.epochs:
        totals["cold-start"] = obs.metrics.get(COLD_START_S, 0.0)
    # The run-level sync total covers sync off the epoch timeline too (a
    # workflow's tuning stages); on a train run it is the epochs' own sum.
    totals["sync"] = max(totals["sync"], obs.comm_overhead_s)
    for e in obs.epochs:
        if e.scheduling_overhead_s > 0:
            spans.append(
                BottleneckSpan(
                    epoch=e.index,
                    component="scheduling",
                    allocation=e.alloc_label,
                    seconds=e.scheduling_overhead_s,
                    share=e.scheduling_overhead_s / jct,
                )
            )
    spans.sort(key=lambda s: (-s.seconds, s.epoch, s.component))
    hidden = obs.hidden_restart_s
    visible = obs.visible_restart_s
    if visible is None:
        # No registry capture: approximate with the per-epoch visible
        # overhead recorded on restarted epochs (includes the search time
        # of the restarting decision).
        visible = sum(e.scheduling_overhead_s for e in obs.epochs if e.restarted)
    return CriticalPathAnalysis(
        jct_s=obs.jct_s,
        components=tuple(
            ComponentShare(name, totals[name], totals[name] / jct)
            for name in COMPONENT_ORDER
        ),
        bottlenecks=tuple(spans[:top_k]),
        restart=RestartOverheadSplit(hidden_s=hidden, visible_s=visible),
        n_restarts=obs.n_restarts,
    )
