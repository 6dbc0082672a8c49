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
seeds a gang epoch's sites in two array passes before any worker runs,
and the decisions read them back by site.

The injector owns the run's :class:`~repro.faults.ledger.FaultLedger`
and mirrors every record into lazily created telemetry counters (lazy so
that attaching no injector leaves the metrics registry untouched).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import first_uniforms, pcg64_states, seed_rows, stream_for
from repro.faults.ledger import FAULT_KINDS, FaultLedger
from repro.faults.plan import FaultPlan, PermanentLoss
from repro.telemetry import get_registry

#: Attempts per faulty rank that a gang predraws; sites past them (only
#: under a larger retry budget) draw from their own stream.
PREDRAW_ATTEMPTS = 8


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
        # The gang last predrawn: its (epoch, incarnation), every seeded
        # site's first uniform, each kind's first row and rank -> slot map,
        # the lognormal sites' seeded PCG64 states by row, and the epoch's
        # sync uniforms.
        self._gang: tuple[int, int] | None = None
        self._us: list[float] = []
        self._rows: dict[str, tuple[int, dict[int, int]]] = {}
        self._states: dict[int, tuple[int, int]] = {}
        self._gang_us: dict[str, float] = {}
        self._stride = min(plan.retry.max_attempts, PREDRAW_ATTEMPTS)
        self._sync_sites = any(
            spec.transient_prob > 0.0 for spec in plan.storage.values()
        )
        self._bit_gen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bit_gen)
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
        return float(stream_for(self.seed, "faults", self.scope, *site).random())

    def _row(self, kind: str, key: tuple | None) -> int | None:
        """The last gang's predrawn row for ``key``, ``(epoch, rank, j,
        incarnation)``: rank's ``j``-th site of ``kind`` (its attempt, or
        its cold window's count), if that site was predrawn."""
        block = self._rows.get(kind)
        if block is None or key is None:
            return None
        epoch, rank, j, incarnation = key
        if j >= self._stride or (epoch, incarnation) != self._gang:
            return None
        slot = block[1].get(rank)
        return None if slot is None else block[0] + slot * self._stride + j

    def _rank_u(self, kind: str, key: tuple | None, *site: object) -> float:
        """``_u(kind, *site)``, read off the predrawn rows when ``key``
        names one."""
        row = self._row(kind, key)
        return self._u(kind, *site) if row is None else self._us[row]

    def _lognormal(self, sigma: float, kind: str, key: tuple | None,
                   *site: object) -> float:
        if sigma <= 0.0:
            return 1.0
        row = self._row(kind, key)
        if row is None:
            gen = stream_for(self.seed, "faults", self.scope, kind, *site)
        else:
            state, inc = self._states[row]
            self._bit_gen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen = self._gen
        return float(gen.lognormal(0.0, sigma))

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
        """Seed a gang epoch's fault sites in two array passes and return
        the mask of its faulty ranks.

        A rank is faulty when its attempt 0 crashes, its first cold start
        fails (cold ranks only), or ``late`` marks it: the platform's
        ranks whose planned first attempt overruns the invocation
        timeout. Every other rank runs its planned attempt once and reads
        nothing more. The first pass draws every rank's attempt-0 crash,
        every cold rank's first cold-start failure and the epoch's
        ``sync``/``sync-n`` uniforms. The second seeds every site a
        faulty rank can read, for each attempt up to the retry budget
        (at most :data:`PREDRAW_ATTEMPTS`): crash, crash-mid, crash-frac,
        backoff and retry-compute, and for a cold faulty rank its
        cold-fail counts and cold-window jitters. The decisions below read
        these back by site and draw any other site alone. Each value is
        the one the site's own stream gives, so the choice of sites
        changes only speed, never a decision.
        """
        plan = self.plan
        self._gang = (epoch, incarnation)
        self._rows, self._states, self._gang_us = {}, {}, {}
        ranks = np.arange(n_functions)
        cold = (
            ranks[n_warm:] if plan.cold_start_failure_prob > 0.0
            else ranks[:0]
        )
        blocks = []  # longest entropy first
        if cold.size:
            blocks.append(("cold-fail", _sites(epoch, cold, 0, incarnation, 0)))
        if plan.crash_prob > 0.0:
            blocks.append(("crash", _sites(epoch, ranks, 0, incarnation)))
        if self._sync_sites:
            sync = np.array([[epoch, incarnation]])
            blocks += [("sync", sync), ("sync-n", sync)]
        us = self._seed(blocks)[0]
        faulty = (
            np.zeros(n_functions, dtype=bool) if late is None else late.copy()
        )
        if cold.size:
            faulty[n_warm:] |= us[:cold.size] < plan.cold_start_failure_prob
        if plan.crash_prob > 0.0:
            faulty |= us[cold.size:cold.size + n_functions] < plan.crash_prob
        if self._sync_sites:
            self._gang_us = {"sync": float(us[-2]), "sync-n": float(us[-1])}
        if faulty.any():
            self._predraw_faulty(epoch, np.flatnonzero(faulty), n_warm, incarnation)
        return faulty

    def _predraw_faulty(self, epoch: int, faulty: np.ndarray, n_warm: int,
                        incarnation: int) -> None:
        """The second pass of :meth:`predraw_gang`: every site the faulty
        ranks can read, ``self._stride`` rows per rank and kind."""
        plan = self.plan
        stride = self._stride
        slots = dict(zip(faulty.tolist(), range(faulty.size)))
        sites = _sites(
            epoch, np.repeat(faulty, stride), np.arange(faulty.size * stride) % stride,
            incarnation,
        )
        # (kind, site rows, rank -> slot): longest entropy first, as a
        # cold site carries one label more, and the two lognormal kinds
        # adjacent, so that one state pass seeds both.
        blocks = []
        if plan.cold_start_failure_prob > 0.0 and faulty[-1] >= n_warm:
            cold = faulty[faulty >= n_warm]
            rank, k = np.repeat(cold, stride), np.arange(cold.size * stride) % stride
            cold_slots = dict(zip(cold.tolist(), range(cold.size)))
            blocks += [
                ("cold-fail", _sites(epoch, rank, 0, incarnation, k), cold_slots),
                ("cold-window", _sites(epoch, rank, 0, k, incarnation), cold_slots),
            ]
        if stride > 1 and (plan.crash_prob > 0.0
                           or plan.invocation_timeout_s is not None):
            blocks += [
                ("retry-compute", sites, slots),
                # backoff's site is (attempt, epoch, rank, incarnation)
                ("backoff", sites[:, [2, 0, 1, 3]], slots),
            ]
        if plan.crash_prob > 0.0:
            blocks += [(kind, sites, slots) for kind in ("crash", "crash-mid", "crash-frac")]
        us, seeded = self._seed([(kind, rows) for kind, rows, _ in blocks])
        self._us = us.tolist()
        base, lognormal = 0, []
        for kind, rows, block_slots in blocks:
            self._rows[kind] = (base, block_slots)
            if kind in ("cold-window", "retry-compute"):
                lognormal += [base, base + len(rows)]
            base += len(rows)
        if lognormal:
            lo, hi = min(lognormal), max(lognormal)
            self._states = dict(zip(range(lo, hi), zip(*pcg64_states(seeded[lo:hi]))))

    def _seed(self, blocks: list) -> tuple[np.ndarray, np.ndarray]:
        """One array pass over ``(kind, rows)`` blocks of site labels: each
        row's first uniform, and the seeded state limbs behind it."""
        seeded = seed_rows(
            self.seed, [(("faults", self.scope, kind), rows) for kind, rows in blocks]
        )
        return first_uniforms(seeded), seeded

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
        if self._rank_u("crash", site, *site) >= p:
            return None
        if self._rank_u("crash-mid", site, *site) < self.plan.crash_mid_fraction:
            # Mid-epoch crash: somewhere in the middle 90% of the body.
            frac = 0.05 + 0.9 * self._rank_u("crash-frac", site, *site)
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
            key = (epoch, rank, n, incarnation) if attempt == 0 else None
            if self._rank_u("cold-fail", key, epoch, rank, attempt, incarnation, n) >= p:
                break
            n += 1
        return n

    def cold_window_factor(self, epoch: int, rank: int, attempt: int,
                           k: int, sigma: float, incarnation: int = 0) -> float:
        """Jitter for a retried cold-start window (site-keyed, so retries
        don't disturb the platform's shared noise stream)."""
        key = (epoch, rank, k, incarnation) if attempt == 0 else None
        return self._lognormal(
            sigma, "cold-window", key, epoch, rank, attempt, k, incarnation
        )

    def retry_compute_factor(self, epoch: int, rank: int, attempt: int,
                             sigma: float, incarnation: int = 0) -> float:
        """Fresh compute jitter for a re-executed attempt."""
        site = (epoch, rank, attempt, incarnation)
        return self._lognormal(sigma, "retry-compute", site, *site)

    def backoff_s(self, attempt: int, *site: object) -> float:
        """Exponential backoff with deterministic jitter for this site."""
        retry = self.plan.retry
        base = retry.backoff_s(attempt)
        if base <= 0.0 or retry.jitter <= 0.0:
            return base
        key = None
        if len(site) == 3:  # a worker's retry: (epoch, rank, incarnation)
            epoch, rank, incarnation = site
            key = (epoch, rank, attempt, incarnation)
        u = self._rank_u("backoff", key, attempt, *site)
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
            and self._gang_u("sync", epoch, incarnation) < spec.transient_prob
        ):
            n_transient = 1 + int(
                self._gang_u("sync-n", epoch, incarnation) * spec.max_errors
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

    def _gang_u(self, kind: str, epoch: int, incarnation: int) -> float:
        if (epoch, incarnation) == self._gang and kind in self._gang_us:
            return self._gang_us[kind]
        return self._u(kind, epoch, incarnation)

    def stage_penalty(self, stage: int, backend: str, start_s: float,
                      stage_s: float) -> SyncPenalty:
        """Storage faults for one SHA tuning stage (coarser grain: the
        stage's whole communication share is one exposure window)."""
        return self.sync_penalty(stage, backend, start_s, stage_s)


def _sites(*labels) -> np.ndarray:
    """Site label rows, one column per label: an int label repeats down
    the rows of the array labels."""
    n = max(label.size for label in labels if isinstance(label, np.ndarray))
    out = np.empty((n, len(labels)), dtype=np.int64)
    for column, label in enumerate(labels):
        out[:, column] = label
    return out
