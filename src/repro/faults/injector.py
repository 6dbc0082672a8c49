"""The deterministic fault process driving one run's injections.

Every probabilistic decision — does this worker crash on this attempt,
how long is a retried cold start, how many transient errors does this
sync hit — is drawn from its own ``stream_for`` stream keyed by
``(seed, scope, site)``, where the *site* is the (epoch, rank, attempt)
coordinate of the decision. Keyed streams make the fault sequence a pure
function of (plan, seed): the event engine's interleaving, the number of
subscribers on the bus, and telemetry on/off cannot perturb a single
draw, so two identical runs produce byte-identical fault ledgers. Keyed
streams also make the draws order-free: :meth:`FaultInjector.predraw_gang`
draws a gang epoch's first-attempt uniforms in array batches before any
worker runs, and the decisions read them back by site.

The injector owns the run's :class:`~repro.faults.ledger.FaultLedger`
and mirrors every record into lazily created telemetry counters (lazy so
that attaching no injector leaves the metrics registry untouched).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import keyed_uniforms, stream_for
from repro.faults.ledger import FAULT_KINDS, FaultLedger
from repro.faults.plan import FaultPlan, PermanentLoss
from repro.telemetry import get_registry


@dataclass(frozen=True, slots=True)
class WorkerFault:
    """One injected worker failure.

    ``run_fraction`` is how much of the attempt's body ran before the
    crash (0.0 = failed at invoke, before any useful work).
    """

    kind: str  # "crash-invoke" | "crash-mid"
    run_fraction: float


@dataclass(frozen=True, slots=True)
class SyncPenalty:
    """Extra simulated time one synchronization pays to storage faults."""

    extra_s: float = 0.0
    n_transient: int = 0
    throttled_s: float = 0.0
    exhausted: bool = False


class FaultInjector:
    """Draws fault decisions for one run scope ("train" or "tune")."""

    def __init__(self, plan: FaultPlan, seed: int = 0, scope: str = "train") -> None:
        self.plan = plan
        self.seed = seed
        self.scope = scope
        self.ledger = FaultLedger(plan_name=plan.name)
        self._handled_losses: set[PermanentLoss] = set()
        self._drawn: dict[tuple, float] = {}  # site -> pre-drawn uniform
        registry = get_registry()
        # Created here, not at platform construction: an injector only
        # exists when a plan injects something, so fault-free runs create
        # zero extra metric families (byte-identical telemetry exports).
        self._m_injected = registry.counter(
            "repro_faults_injected_total",
            "Faults injected, by kind",
            labelnames=("kind",),
        )
        self._m_recovery = registry.counter(
            "repro_faults_recovery_actions_total",
            "Recovery actions taken, by kind",
            labelnames=("kind",),
        )
        self._m_lost = registry.counter(
            "repro_faults_lost_seconds_total",
            "Simulated seconds lost to faults plus recovery overhead",
        )

    # ------------------------------------------------------------------ plumbing
    def _u(self, *site: object) -> float:
        """One uniform draw from the stream keyed by this decision site."""
        u = self._drawn.pop(site, None)  # each site is read once
        if u is None:
            u = float(stream_for(self.seed, "faults", self.scope, *site).random())
        return u

    def _draw(self, kind: str, prefix: tuple, ranks: np.ndarray,
              suffix: tuple) -> np.ndarray:
        """``_u(kind, *prefix, rank, *suffix)`` for every rank, in one batch."""
        us = keyed_uniforms(
            self.seed, ("faults", self.scope, kind, *prefix), ranks, suffix
        )
        self._keep(kind, prefix, ranks, suffix, us)
        return us

    def _keep(self, kind: str, prefix: tuple, ranks: np.ndarray,
              suffix: tuple, us: np.ndarray) -> None:
        """Store batched uniforms for the sites ``(kind, *prefix, rank, *suffix)``."""
        self._drawn.update(zip(
            ((kind, *prefix, rank, *suffix) for rank in ranks.tolist()),
            us.tolist(),
        ))

    def _lognormal(self, sigma: float, *site: object) -> float:
        if sigma <= 0.0:
            return 1.0
        return float(
            stream_for(self.seed, "faults", self.scope, *site).lognormal(0.0, sigma)
        )

    def record(self, kind: str, t_s: float, **kw) -> None:
        """Ledger + telemetry in one step (see :class:`FaultLedger`)."""
        rec = self.ledger.record(kind, t_s, scope=self.scope, **kw)
        if kind in FAULT_KINDS:
            self._m_injected.labels(kind=kind).inc()
        else:
            self._m_recovery.labels(kind=kind).inc()
        if rec.lost_s:
            self._m_lost.inc(rec.lost_s)

    def predraw_gang(self, epoch: int, n_functions: int, n_warm: int,
                     incarnation: int = 0,
                     late: np.ndarray | None = None) -> np.ndarray:
        """Draw a gang epoch's first-attempt uniforms in array batches and
        return the mask of its faulty ranks.

        A rank is faulty when its attempt 0 crashes, its first cold start
        fails (cold ranks only), or ``late`` marks it: the platform's
        ranks whose planned first attempt overruns the invocation
        timeout. Every other rank runs its planned attempt once and reads
        nothing more. Only the faulty ranks' sites are kept: their
        attempt-0 crash and first cold-start draws and, for each rank
        whose attempt 0 crashes, where it crashes, its first backoff and
        attempt 1's crash draw. The decisions below read these back by
        site and draw any other site alone. Each batched value is the one
        the site's own stream gives, so this choice of sites changes only
        speed, never a decision.
        """
        plan = self.plan
        self._drawn = {}
        ranks = np.arange(n_functions)
        first = (0, incarnation)
        faulty = (
            np.zeros(n_functions, dtype=bool) if late is None else late.copy()
        )
        cold_fail = None
        if plan.cold_start_failure_prob > 0.0 and n_warm < n_functions:
            cold_fail = keyed_uniforms(
                self.seed, ("faults", self.scope, "cold-fail", epoch),
                ranks[n_warm:], (*first, 0),
            )
            faulty[n_warm:] |= cold_fail < plan.cold_start_failure_prob
        crash = None
        if plan.crash_prob > 0.0:
            crash = keyed_uniforms(
                self.seed, ("faults", self.scope, "crash", epoch), ranks, first
            )
            crashes = crash < plan.crash_prob
            faulty |= crashes
        if cold_fail is not None:
            keep = faulty[n_warm:]
            self._keep(
                "cold-fail", (epoch,), ranks[n_warm:][keep], (*first, 0),
                cold_fail[keep],
            )
        if crash is None:
            return faulty
        self._keep("crash", (epoch,), ranks[faulty], first, crash[faulty])
        crashed = ranks[crashes]
        if crashed.size:
            mid = crashed[self._draw("crash-mid", (epoch,), crashed, first)
                          < plan.crash_mid_fraction]
            if mid.size:
                self._draw("crash-frac", (epoch,), mid, first)
            self._draw("backoff", (1, epoch), crashed, (incarnation,))
            self._draw("crash", (epoch,), crashed, (1, incarnation))
        return faulty

    # ------------------------------------------------------------------ decisions
    # Every decision site carries an ``incarnation`` salt: the executor
    # bumps it when an epoch is re-run after a checkpoint restore, so the
    # re-run draws *fresh* faults instead of deterministically replaying
    # the failure that killed the previous incarnation.
    def worker_fault(self, epoch: int, rank: int, attempt: int,
                     incarnation: int = 0) -> WorkerFault | None:
        """Does this worker attempt crash — and if so, where in the body?"""
        p = self.plan.crash_prob
        if p <= 0.0:
            return None
        site = (epoch, rank, attempt, incarnation)
        if self._u("crash", *site) >= p:
            return None
        if self._u("crash-mid", *site) < self.plan.crash_mid_fraction:
            # Mid-epoch crash: somewhere in the middle 90% of the body.
            frac = 0.05 + 0.9 * self._u("crash-frac", *site)
            return WorkerFault(kind="crash-mid", run_fraction=frac)
        return WorkerFault(kind="crash-invoke", run_fraction=0.0)

    def cold_start_failures(self, epoch: int, rank: int, attempt: int,
                            incarnation: int = 0) -> int:
        """How many cold starts fail before one sticks (bounded)."""
        p = self.plan.cold_start_failure_prob
        if p <= 0.0:
            return 0
        n = 0
        # Bounded by the retry budget: a cold start that keeps failing
        # beyond it surfaces as a crash-like lost attempt, not a livelock.
        while n < self.plan.retry.max_attempts:
            if self._u("cold-fail", epoch, rank, attempt, incarnation, n) >= p:
                break
            n += 1
        return n

    def cold_window_factor(self, epoch: int, rank: int, attempt: int,
                           k: int, sigma: float, incarnation: int = 0) -> float:
        """Jitter for a retried cold-start window (site-keyed, so retries
        don't disturb the platform's shared noise stream)."""
        return self._lognormal(
            sigma, "cold-window", epoch, rank, attempt, k, incarnation
        )

    def retry_compute_factor(self, epoch: int, rank: int, attempt: int,
                             sigma: float, incarnation: int = 0) -> float:
        """Fresh compute jitter for a re-executed attempt."""
        return self._lognormal(
            sigma, "retry-compute", epoch, rank, attempt, incarnation
        )

    def backoff_s(self, attempt: int, *site: object) -> float:
        """Exponential backoff with deterministic jitter for this site."""
        retry = self.plan.retry
        base = retry.backoff_s(attempt)
        if base <= 0.0 or retry.jitter <= 0.0:
            return base
        u = self._u("backoff", attempt, *site)
        return base * (1.0 + retry.jitter * (2.0 * u - 1.0))

    # ------------------------------------------------------------------ permanent loss
    def pending_losses(self, epoch: int, n_functions: int) -> list[PermanentLoss]:
        """Losses due at or before ``epoch`` that haven't fired yet."""
        return [
            loss
            for loss in self.plan.permanent_loss
            if loss.epoch <= epoch
            and loss.rank < n_functions
            and loss not in self._handled_losses
        ]

    def mark_loss_handled(self, loss: PermanentLoss) -> None:
        """A loss fires once; after the replan it stays handled."""
        self._handled_losses.add(loss)

    # ------------------------------------------------------------------ storage
    def sync_penalty(self, epoch: int, backend: str, start_s: float,
                     sync_s: float, incarnation: int = 0) -> SyncPenalty:
        """Storage faults for one synchronization phase.

        Transient episodes burn ``error_timeout_s`` plus a backoff per
        failed attempt; throttle windows stretch the overlapped share of
        the transfer by their slowdown. ``exhausted`` is set when the
        episode outlasted the retry budget (the sync failed for good).

        ``start_s`` is the platform's simulated clock, which excludes the
        scheduler's search overhead — close enough for window matching,
        since windows are minutes wide and search overhead is seconds.
        """
        spec = self.plan.storage_spec(backend)
        if spec is None or sync_s <= 0.0:
            return SyncPenalty()
        extra = 0.0
        n_transient = 0
        exhausted = False
        if (
            spec.transient_prob > 0.0
            and self._u("sync", epoch, incarnation) < spec.transient_prob
        ):
            n_transient = 1 + int(
                self._u("sync-n", epoch, incarnation) * spec.max_errors
            )
            n_transient = min(n_transient, spec.max_errors)
            for k in range(n_transient):
                lost = spec.error_timeout_s
                backoff = self.backoff_s(k + 1, "sync", epoch, k, incarnation)
                extra += lost + backoff
                self.record(
                    "storage-transient", start_s + extra, epoch=epoch,
                    attempt=k, lost_s=lost, detail=backend,
                )
                if backoff:
                    self.record(
                        "retry", start_s + extra, epoch=epoch, attempt=k,
                        lost_s=backoff, detail=f"{backend} backoff",
                    )
            if n_transient >= self.plan.retry.max_attempts:
                exhausted = True
                self.record(
                    "retry-exhausted", start_s + extra, epoch=epoch,
                    detail=f"{backend} sync failed {n_transient}x",
                )
        throttled = 0.0
        for window in spec.throttle_windows:
            overlap = window.overlap_s(start_s, sync_s)
            if overlap > 0.0:
                throttled += overlap * (window.slowdown - 1.0)
        if throttled > 0.0:
            self.record(
                "storage-throttle", start_s, epoch=epoch, lost_s=throttled,
                detail=f"{backend} slowdown window",
            )
            extra += throttled
        return SyncPenalty(
            extra_s=extra, n_transient=n_transient,
            throttled_s=throttled, exhausted=exhausted,
        )

    def stage_penalty(self, stage: int, backend: str, start_s: float,
                      stage_s: float) -> SyncPenalty:
        """Storage faults for one SHA tuning stage (coarser grain: the
        stage's whole communication share is one exposure window)."""
        return self.sync_penalty(stage, backend, start_s, stage_s)
