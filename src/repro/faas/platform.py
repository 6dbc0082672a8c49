"""The serverless platform simulator (AWS Lambda stand-in).

Executes *epochs* of BSP-synchronized function groups on the discrete-event
kernel's clock: every function of the group runs at once (the account
concurrency limit bounds the group size), pays a cold start unless its
group is warm, loads its dataset partition, computes with per-function
jitter, and the group synchronizes after a barrier.
Function durations feed the billing meter. A fault-free epoch is computed
in closed form; a faulted one runs only its faulty workers as kernel
processes.

Warm-pool semantics follow Lambda: a group of functions stays warm between
epochs under the same allocation; changing the allocation (the adaptive
scheduler's restart) cold-starts the new group unless it was pre-warmed by
the delayed-restart mechanism (paper Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import FaultError, RetryExhaustedError, SimulationError
from repro.common.types import EpochTimeBreakdown
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.faas.billing import BillingMeter
from repro.kernel import EventKernel, Join
from repro.faas.function import WarmPool
from repro.faas.noise import NoiseModel
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler


@dataclass(frozen=True, slots=True)
class EpochExecution:
    """Work description for one epoch of one function group.

    Attributes:
        group: warm-pool key — same group ⇒ warm starts after the first epoch.
        n_functions: number of parallel functions.
        memory_mb: per-function memory.
        load_s: base dataset-load duration per function.
        compute_s: base gradient-compute duration per function.
        sync_s: base parameter-synchronization duration for the whole group.
        prewarmed: True when delayed restart already started these functions.
        epoch_index: the executor's 1-based epoch counter; keys fault
            decisions when an injector is attached.
        storage: the allocation's storage backend name (Table-1 catalog
            value); selects the storage fault spec.
        incarnation: bumped by the executor when this epoch is re-run
            after a checkpoint restore, so the re-run draws fresh faults.
    """

    group: str
    n_functions: int
    memory_mb: int
    load_s: float
    compute_s: float
    sync_s: float
    prewarmed: bool = False
    epoch_index: int = 0
    storage: str = ""
    incarnation: int = 0


@dataclass(slots=True)
class InvocationResult:
    """Measured outcome of one executed epoch."""

    wall_time_s: float
    time: EpochTimeBreakdown
    cold_starts: int
    billed_usd: float
    # Per-worker body durations (cold start + load + jittered compute) in
    # rank order; the barrier makes max(worker_durations_s) the gang's
    # effective load+compute window. Feeds the straggler diagnostics.
    worker_durations_s: tuple[float, ...] = ()
    cold_start_s: float = 0.0
    # Fault accounting (0 unless a fault injector is attached): how many
    # faults struck this epoch, and the wall-time inflation they caused
    # (failed attempts + backoffs + storage penalties).
    n_faults: int = 0
    fault_overhead_s: float = 0.0


@dataclass
class FaaSPlatform:
    """A simulated serverless account with a concurrency limit and billing."""

    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    seed: int = 0

    warm_ttl_s: float = 900.0
    # Fault seeding: rank -> multiplicative compute slowdown, applied on top
    # of the noise model. Empty by default, so normal runs are untouched; a
    # test (or a chaos experiment) injects {2: 5.0} to make worker 2 a 5x
    # straggler that the diagnostics layer must flag.
    straggler_factors: dict[int, float] = field(default_factory=dict)
    # A repro.faults.FaultInjector, or None. None (the default) takes the
    # exact pre-fault execution path: zero extra randomness, zero extra
    # metrics, byte-identical results.
    fault_injector: object | None = None

    def __post_init__(self) -> None:
        self.sim = EventKernel()
        # Highest gang size run so far: one gang holds the account's
        # concurrency at a time, so this is the peak slot usage.
        self.peak_in_use = 0
        # Most instances warm at any epoch end; kept only while metered.
        self.peak_warm = 0
        self.meter = BillingMeter(platform=self.platform)
        self._noise = NoiseModel(self.seed, "platform", self.platform)
        self.pool = WarmPool(ttl_s=self.warm_ttl_s)
        registry = get_registry()
        self._metered = registry.enabled
        self.tracer = get_tracer()
        self._m_invocations = registry.counter(
            "repro_faas_invocations_total", "Function invocations executed"
        )
        self._m_cold_starts = registry.counter(
            "repro_faas_cold_starts_total", "Function cold starts paid"
        )
        self._m_cold_seconds = registry.counter(
            "repro_faas_cold_start_seconds_total",
            "Critical-path cold-start time (cold functions of one epoch "
            "start in parallel, so each cold epoch pays one window)",
        )
        self._m_epoch_wall = registry.histogram(
            "repro_faas_epoch_wall_seconds", "Wall time of executed epochs"
        )
        self._m_occupancy = registry.gauge(
            "repro_faas_concurrency_in_use",
            "Concurrency slots held by the most recent epoch's gang",
        )
        self._m_occupancy_peak = registry.gauge(
            "repro_faas_concurrency_peak_in_use",
            "Highest simultaneous concurrency-slot usage seen so far",
        )
        self._m_warm_peak = registry.gauge(
            "repro_faas_warm_pool_peak",
            "Most warm instances in the pool at any epoch end so far",
        )

    # ------------------------------------------------------------------ warm pool
    def prewarm(self, group: str, n: int = 1) -> None:
        """Provision ``n`` instances ahead of time (delayed restart, Fig. 8)."""
        self.pool.prewarm(group, n, self.sim.now)

    def retire(self, group: str) -> None:
        """Terminate a group's instances (allocation switch)."""
        self.pool.retire(group)

    def _sample_epoch(self, spec: EpochExecution, start: float, n_cold: int) -> None:
        """Epoch-boundary platform series on this account's sim clock."""
        ts = get_sampler()
        if not ts.enabled:
            return
        sim = self.sim
        ts.sample(
            "platform.concurrency_limit", start,
            float(self.platform.limits.max_concurrency),
        )
        ts.sample("platform.inflight", start, float(spec.n_functions))
        ts.sample(
            "platform.warm_pool", sim.now, float(self.pool.total_warm(sim.now))
        )
        ts.sample(
            "platform.cold_start_rate", sim.now, n_cold / spec.n_functions
        )

    # ------------------------------------------------------------------ execution
    @property
    def noise_draws(self) -> int:
        """RNG cursor of the platform noise stream (journaled per epoch)."""
        return self._noise.draws

    def execute_epoch(self, spec: EpochExecution) -> InvocationResult:
        """Run one epoch of a function group and bill it.

        Without an injector the epoch is simulated in closed form: each
        worker runs its cold start (cold subset only), load and jittered
        compute from one start, the barrier is the latest of them, and
        the gang synchronizes after it. The barrier makes the epoch's
        compute phase the *maximum* of the per-function durations, one
        source of the analytical model's validation error (Fig. 19/20).
        The clock, the kernel's event count and the bill come out exactly
        as if every worker's sleeps had been dispatched through the
        kernel.

        With an injector attached the epoch additionally sees
        permanent-loss detection (one detection window on the clock
        before the gang launches), per-worker bounded retry (crashes,
        timeouts, cold-start failures — each failed attempt is billed and
        re-run after a jittered backoff), and storage transient/throttle
        penalties on the synchronization. Only the faulty ranks — attempt
        0 crashes, the first cold start fails, or the planned attempt
        overruns the invocation timeout — run as kernel processes. The
        healthy ranks run their planned attempt in closed form behind one
        stand-in task that ends at their latest end, and the kernel's
        event count is advanced as if each had been a process. A gang that
        exhausts its retry budget raises :class:`RetryExhaustedError`; the
        executor restores the last epoch-boundary checkpoint and re-runs
        only this epoch.

        Both paths take the warm pool and draw the noise the same way.
        A malformed spec, or a gang larger than the account concurrency
        limit, raises :class:`SimulationError` before either touches the
        pool, the noise streams or the clock.
        """
        if spec.n_functions < 1:
            raise SimulationError("epoch needs at least one function")
        if not spec.memory_mb >= 1:
            raise SimulationError(f"epoch memory_mb must be >= 1, got {spec.memory_mb}")
        for phase in ("load_s", "compute_s", "sync_s"):
            value = getattr(spec, phase)
            if not (math.isfinite(value) and value >= 0):
                raise SimulationError(
                    f"epoch {phase} must be finite and >= 0, got {value}"
                )
        limit = self.platform.limits.max_concurrency
        if spec.n_functions > limit:
            # BSP needs every worker alive simultaneously: n above the
            # account limit is an infeasible allocation, not a queue.
            raise SimulationError(
                f"acquire({spec.n_functions}) exceeds capacity {limit} "
                "of account-concurrency"
            )
        if self.fault_injector is None:
            return self._execute_closed_form(spec)
        return self._execute_gang(spec, self.fault_injector)

    def _launch(self, spec: EpochExecution) -> tuple:
        """Take the gang's instances from the warm pool and draw its noise.

        Returns ``(n_warm, n_cold, cold_s, compute_factors, load_factor,
        sync_factor)``; the draw order is part of the run's identity.
        """
        now = self.sim.now
        if spec.prewarmed:
            # Delayed restart provisioned these instances during the
            # previous epoch; make sure the pool reflects that.
            deficit = spec.n_functions - self.pool.warm_count(spec.group, now)
            if deficit > 0:
                self.pool.prewarm(spec.group, deficit, now)
        n_warm, n_cold = self.pool.acquire(spec.group, spec.n_functions, now)
        noise = self._noise
        cold_s = (
            self.platform.limits.cold_start_s * noise.cold_start_factor()
            if n_cold else 0.0
        )
        compute_factors = noise.compute_factors(spec.n_functions)
        for rank, factor in self.straggler_factors.items():
            if 0 <= rank < spec.n_functions:
                compute_factors[rank] *= factor
        load_factor = noise.network_factor()
        sync_factor = noise.network_factor()
        return n_warm, n_cold, cold_s, compute_factors, load_factor, sync_factor

    def _finish_epoch(
        self,
        spec: EpochExecution,
        start: float,
        n_cold: int,
        cold_s: float,
        invocations: int,
        extra_cold: int = 0,
    ) -> float:
        """Return the gang's instances to the pool and record the epoch's
        metrics; returns its wall time."""
        now = self.sim.now
        self.pool.release(spec.group, spec.n_functions, now)
        wall = now - start
        self._m_invocations.inc(invocations)
        if n_cold:
            self._m_cold_starts.inc(n_cold)
            self._m_cold_seconds.inc(cold_s)
        if extra_cold:
            self._m_cold_starts.inc(extra_cold)
        self._m_epoch_wall.observe(wall)
        self.peak_in_use = max(self.peak_in_use, spec.n_functions)
        self._m_occupancy.set(spec.n_functions)
        self._m_occupancy_peak.set(self.peak_in_use)
        if self._metered:
            self.peak_warm = max(self.peak_warm, self.pool.total_warm(now))
            self._m_warm_peak.set(self.peak_warm)
        self._sample_epoch(spec, start, n_cold)
        return wall

    def _execute_closed_form(self, spec: EpochExecution) -> InvocationResult:
        """The fault-free epoch as array arithmetic on the kernel's clock."""
        n = spec.n_functions
        sim = self.sim
        start = sim.now
        n_warm, n_cold, cold_s, factors, load_factor, sync_factor = self._launch(spec)
        load_s = spec.load_s * load_factor
        sync_s = spec.sync_s * sync_factor
        # Each rank's end is the kernel's own float sum
        # ((start + cold) + load) + compute, the cold term on the cold
        # subset only; the barrier is the latest end.
        body = np.full(n, start)
        body[n_warm:] += cold_s
        ends = (body + load_s) + spec.compute_s * factors
        barrier = float(ends.max())
        durations = ends - start
        # The event-driven gang dispatches 4 driver steps (launch, acquire,
        # sync, release) and, per rank, a launch, a load, a compute and a
        # join wake-up, plus a cold-start sleep on each cold rank.
        sim.advance(barrier + sync_s, 4 + 4 * n + n_cold)
        billed = self.meter.bill_gang(spec.memory_mb, durations + sync_s)
        wall = self._finish_epoch(spec, start, n_cold, cold_s, n)
        consumed = durations.tolist()
        measured = EpochTimeBreakdown(
            load_s=load_s,
            compute_s=max(consumed) - cold_s - load_s,
            sync_s=sync_s,
        )
        tracer = self.tracer
        if tracer.enabled:
            track = f"group:{spec.group}"
            if n_cold:
                tracer.span(
                    "cold-start", "cold", start, cold_s, track,
                    cold=n_cold, warm=n_warm,
                )
            load_end = start + cold_s + load_s
            tracer.span("load", "load", start + cold_s, load_s, track)
            tracer.span(
                "compute", "compute", load_end,
                max(0.0, barrier - load_end), track, barrier=True,
            )
            tracer.span("sync", "sync", barrier, sync_s, track)
            tracer.workers(track, np.full(n, start), durations, n_warm)
        return InvocationResult(
            wall_time_s=wall,
            time=measured,
            cold_starts=n_cold,
            billed_usd=billed,
            worker_durations_s=tuple(consumed),
            cold_start_s=cold_s,
        )

    def _execute_gang(self, spec: EpochExecution, injector) -> InvocationResult:
        """The epoch under an attached fault injector: its faulty ranks as
        kernel processes, its healthy ranks from arrays."""
        sim = self.sim
        start = sim.now
        epoch = spec.epoch_index
        incarnation = spec.incarnation
        cold_base = self.platform.limits.cold_start_s

        losses = injector.pending_losses(epoch, spec.n_functions)
        if losses:
            # The platform notices the dead instances when their invokes
            # time out: one detection window (one event) on the critical
            # path, before the gang launches.
            detect_s = injector.plan.invocation_timeout_s or cold_base
            sim.advance(sim.now + detect_s, 1)
            for loss in losses:
                injector.record(
                    "permanent-loss", sim.now, epoch=epoch, rank=loss.rank,
                    lost_s=detect_s,
                    detail=f"instance gone since epoch {loss.epoch}",
                )
                injector.mark_loss_handled(loss)
            exc = FaultError(
                f"permanent loss of {len(losses)} function instance(s) "
                f"at epoch {epoch}",
                scope=injector.scope, t_s=sim.now,
            )
            exc.losses = tuple(losses)
            raise exc

        n_warm, n_cold, cold_s, compute_factors, load_factor, sync_factor = (
            self._launch(spec)
        )
        n = spec.n_functions
        retry = injector.plan.retry
        timeout_s = injector.plan.invocation_timeout_s
        cold_sigma = self.platform.cold_start_noise_sigma
        # Each rank's planned first attempt, the worker's own float sum
        # cold + (load + compute) with the cold term on the cold subset.
        cold = np.zeros(n)
        cold[n_warm:] = cold_s
        planned = cold + (spec.load_s * load_factor + spec.compute_s * compute_factors)
        faulty = injector.predraw_gang(
            epoch, n, n_warm, incarnation,
            None if timeout_s is None else planned > timeout_s,
        )
        n_healthy = n - int(np.count_nonzero(faulty))

        # A healthy rank runs its planned first attempt from the gang's
        # start and ends where a worker would; faulty ranks run as
        # workers and overwrite their own entries.
        took = ((start + planned) - start).tolist()
        starts = [start] * n
        durations = list(took)  # final successful attempt
        consumed = list(took)   # body start -> final outcome
        failed = [False] * n
        extra_attempts: list[float] = []      # failed-attempt runtimes (billed)
        extra_cold = [0]                      # retry + failed cold windows
        cold_failures = [0]                   # failed cold windows only

        def worker_proc(rank: int):
            body_start = sim.now
            starts[rank] = body_start
            attempt = 0
            while attempt < retry.max_attempts:
                attempt_start = sim.now
                # Cold start: only the gang's cold subset pays one, on its
                # first attempt. Retries are routed to a warm spare of the
                # same group (the platform keeps the sandbox pool alive),
                # so they pay backoff + re-execution but no cold window.
                cold_here = 0.0
                if rank >= n_warm and attempt == 0:
                    n_csf = injector.cold_start_failures(
                        epoch, rank, attempt, incarnation
                    )
                    for k in range(n_csf):
                        window = cold_base * injector.cold_window_factor(
                            epoch, rank, attempt, k, cold_sigma, incarnation
                        )
                        yield window
                        extra_cold[0] += 1
                        cold_failures[0] += 1
                        injector.record(
                            "cold-start-failure", sim.now, epoch=epoch,
                            rank=rank, attempt=attempt, lost_s=window,
                        )
                    cold_here = cold_s
                if attempt == 0:
                    factor = float(compute_factors[rank])
                else:
                    # Speculative re-execution: fresh jitter, and the
                    # seeded straggler factor does not follow the retry.
                    factor = injector.retry_compute_factor(
                        epoch, rank, attempt, self.platform.compute_noise_sigma,
                        incarnation,
                    )
                body_s = spec.load_s * load_factor + spec.compute_s * factor
                planned = cold_here + body_s
                fault = injector.worker_fault(epoch, rank, attempt, incarnation)
                if fault is not None:
                    ran = cold_here + body_s * fault.run_fraction
                    yield ran
                    extra_attempts.append(ran)
                    injector.record(
                        "crash", sim.now, epoch=epoch, rank=rank,
                        attempt=attempt, lost_s=ran, detail=fault.kind,
                    )
                elif timeout_s is not None and planned > timeout_s:
                    yield timeout_s
                    extra_attempts.append(timeout_s)
                    injector.record(
                        "timeout", sim.now, epoch=epoch, rank=rank,
                        attempt=attempt, lost_s=timeout_s,
                        detail=f"planned {planned:.2f}s > {timeout_s:.2f}s limit",
                    )
                else:
                    yield planned
                    durations[rank] = sim.now - attempt_start
                    consumed[rank] = sim.now - body_start
                    return
                attempt += 1
                if attempt >= retry.max_attempts:
                    failed[rank] = True
                    consumed[rank] = sim.now - body_start
                    injector.record(
                        "retry-exhausted", sim.now, epoch=epoch, rank=rank,
                        attempt=attempt - 1,
                        detail=f"worker failed {attempt}x",
                    )
                    return
                backoff = injector.backoff_s(
                    attempt, epoch, rank, incarnation
                )
                injector.record(
                    "retry", sim.now, epoch=epoch, rank=rank,
                    attempt=attempt, lost_s=backoff,
                )
                if backoff > 0.0:
                    yield backoff

        def stand_in(sleep_s: float):
            yield sleep_s

        outcome: dict[str, float] = {}

        def epoch_driver():
            tasks = [sim.spawn(worker_proc(r)) for r in np.flatnonzero(faulty).tolist()]
            if n_healthy:
                # One task stands in for the healthy ranks: it ends at
                # the latest of their ends, so the Join resumes as before.
                tasks.append(sim.spawn(stand_in(float(planned[~faulty].max()))))
            yield Join.of(tasks)
            outcome["barrier_at"] = sim.now
            if not any(failed):
                sync_s = spec.sync_s * sync_factor
                penalty = injector.sync_penalty(
                    epoch, spec.storage, sim.now, sync_s, incarnation
                )
                if penalty.exhausted:
                    outcome["storage_failed"] = 1.0
                else:
                    yield sync_s + penalty.extra_s
                    outcome["sync_s"] = sync_s
                    outcome["sync_extra_s"] = penalty.extra_s
                    outcome["sync_faults"] = float(
                        penalty.n_transient + (1 if penalty.throttled_s else 0)
                    )

        driver = sim.spawn(epoch_driver())
        sim.run()
        if not driver.done:
            raise SimulationError("epoch driver did not complete; engine stall")
        # Like the closed form's 4 driver steps, the count keeps the
        # gang's acquire and release steps; and each healthy rank's worker
        # dispatched a launch, a planned wake-up and a join wake-up, of
        # which the stand-in made three.
        sim.advance(sim.now, 2 + max(3 * n_healthy - 3, 0))

        sync_s = outcome.get("sync_s", 0.0)
        sync_extra = outcome.get("sync_extra_s", 0.0)
        # Failed attempts are billed like any invocation (the platform
        # charges for crashed and timed-out runs); only survivors pay the
        # synchronization tail.
        gang_failed = any(failed) or "storage_failed" in outcome
        tail = 0.0 if gang_failed else sync_s
        billed = self.meter.bill_gang(spec.memory_mb, extra_attempts + [
            d + tail for d, lost in zip(durations, failed) if not lost
        ])
        n_faults = (
            len(extra_attempts)
            + cold_failures[0]
            + int(outcome.get("sync_faults", 0.0))
            + (1 if "storage_failed" in outcome else 0)
        )
        wall = self._finish_epoch(
            spec, start, n_cold, cold_s,
            spec.n_functions + len(extra_attempts), extra_cold[0],
        )

        if gang_failed:
            detail = (
                "storage sync retries exhausted"
                if "storage_failed" in outcome
                else f"{sum(failed)} worker(s) exhausted their retries"
            )
            raise RetryExhaustedError(
                f"epoch {epoch} failed: {detail}",
                scope=injector.scope, t_s=sim.now,
            )

        final_window = max(durations)
        gang_window = max(consumed)
        fault_overhead = max(0.0, gang_window - final_window) + sync_extra
        measured = EpochTimeBreakdown(
            load_s=spec.load_s * load_factor,
            compute_s=final_window - cold_s - spec.load_s * load_factor,
            sync_s=sync_s + sync_extra,
        )
        tracer = self.tracer
        if tracer.enabled:
            track = f"group:{spec.group}"
            if n_cold:
                tracer.span(
                    "cold-start", "cold", start, cold_s, track,
                    cold=n_cold, warm=n_warm,
                )
            if fault_overhead > 0:
                tracer.span(
                    "fault-recovery", "fault", outcome["barrier_at"],
                    fault_overhead, track, epoch=epoch, n_faults=n_faults,
                )
            tracer.span(
                "sync", "sync", outcome["barrier_at"], sync_s + sync_extra,
                track,
            )
            tracer.workers(track, starts, consumed, n_warm)
        return InvocationResult(
            wall_time_s=wall,
            time=measured,
            cold_starts=n_cold,
            billed_usd=billed,
            worker_durations_s=tuple(consumed),
            cold_start_s=cold_s,
            n_faults=n_faults,
            fault_overhead_s=fault_overhead,
        )
