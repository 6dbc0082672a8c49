"""The fault injector as it stood when every decision drew its own stream.

A verbatim copy of ``FaultInjector``'s decisions from before a gang's
sites were seeded in array passes: each uniform and each lognormal comes
from one ``stream_for(seed, "faults", scope, *site)`` per decision site,
and ``predraw_gang`` only computes the faulty mask, site by site. The
ledger, the metrics and the permanent-loss bookkeeping are inherited.
``test_predraw.py`` runs the same plans, gangs and reads through this
injector and through :class:`repro.faults.injector.FaultInjector` and
asserts identical decisions, factors and ledgers, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import stream_for
from repro.faults.injector import FaultInjector, SyncPenalty, WorkerFault


class ReferenceInjector(FaultInjector):
    """Every draw from its own site stream; nothing predrawn."""

    def _site_u(self, *site: object) -> float:
        return float(stream_for(self.seed, "faults", self.scope, *site).random())

    def _site_lognormal(self, sigma: float, *site: object) -> float:
        if sigma <= 0.0:
            return 1.0
        return float(
            stream_for(self.seed, "faults", self.scope, *site).lognormal(0.0, sigma)
        )

    def predraw_gang(self, epoch: int, n_functions: int, n_warm: int,
                     incarnation: int = 0,
                     late: np.ndarray | None = None) -> np.ndarray:
        plan = self.plan
        faulty = np.zeros(n_functions, dtype=bool) if late is None else late.copy()
        for rank in range(n_functions):
            if plan.crash_prob > 0.0 and (
                self._site_u("crash", epoch, rank, 0, incarnation) < plan.crash_prob
            ):
                faulty[rank] = True
            if rank >= n_warm and plan.cold_start_failure_prob > 0.0 and (
                self._site_u("cold-fail", epoch, rank, 0, incarnation, 0)
                < plan.cold_start_failure_prob
            ):
                faulty[rank] = True
        return faulty

    def worker_fault(self, epoch: int, rank: int, attempt: int,
                     incarnation: int = 0) -> WorkerFault | None:
        p = self.plan.crash_prob
        if p <= 0.0:
            return None
        site = (epoch, rank, attempt, incarnation)
        if self._site_u("crash", *site) >= p:
            return None
        if self._site_u("crash-mid", *site) < self.plan.crash_mid_fraction:
            frac = 0.05 + 0.9 * self._site_u("crash-frac", *site)
            return WorkerFault(kind="crash-mid", run_fraction=frac)
        return WorkerFault(kind="crash-invoke", run_fraction=0.0)

    def cold_start_failures(self, epoch: int, rank: int, attempt: int,
                            incarnation: int = 0) -> int:
        p = self.plan.cold_start_failure_prob
        if p <= 0.0:
            return 0
        n = 0
        while n < self.plan.retry.max_attempts:
            if self._site_u("cold-fail", epoch, rank, attempt, incarnation, n) >= p:
                break
            n += 1
        return n

    def cold_window_factor(self, epoch: int, rank: int, attempt: int,
                           k: int, sigma: float, incarnation: int = 0) -> float:
        return self._site_lognormal(
            sigma, "cold-window", epoch, rank, attempt, k, incarnation
        )

    def retry_compute_factor(self, epoch: int, rank: int, attempt: int,
                             sigma: float, incarnation: int = 0) -> float:
        return self._site_lognormal(
            sigma, "retry-compute", epoch, rank, attempt, incarnation
        )

    def backoff_s(self, attempt: int, *site: object) -> float:
        retry = self.plan.retry
        base = retry.backoff_s(attempt)
        if base <= 0.0 or retry.jitter <= 0.0:
            return base
        u = self._site_u("backoff", attempt, *site)
        return base * (1.0 + retry.jitter * (2.0 * u - 1.0))

    def sync_penalty(self, epoch: int, backend: str, start_s: float,
                     sync_s: float, incarnation: int = 0) -> SyncPenalty:
        spec = self.plan.storage_spec(backend)
        if spec is None or sync_s <= 0.0:
            return SyncPenalty()
        extra = 0.0
        n_transient = 0
        exhausted = False
        if (
            spec.transient_prob > 0.0
            and self._site_u("sync", epoch, incarnation) < spec.transient_prob
        ):
            n_transient = 1 + int(
                self._site_u("sync-n", epoch, incarnation) * spec.max_errors
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
