#!/usr/bin/env python
"""Performance-regression harness over the experiment registry.

Runs every registered experiment (or a chosen subset) at a fixed scale and
seed, recording per-experiment wall-clock time plus the key telemetry
counters into a versioned JSON document (schema ``repro-bench/v1``,
default ``benchmarks/results/bench.json``). When a committed baseline
exists, the harness compares against it *before* overwriting and exits
non-zero if any experiment slowed down beyond the threshold::

    PYTHONPATH=src python benchmarks/regression.py                 # compare + record
    PYTHONPATH=src python benchmarks/regression.py --update-baseline
    PYTHONPATH=src python benchmarks/regression.py --experiments fig03,table2
    PYTHONPATH=src python benchmarks/regression.py --warn-only     # CI smoke mode

Wall-clock comparisons use a threshold ratio (default 1.5x) and skip
experiments whose baseline ran faster than ``MIN_COMPARABLE_WALL_S`` —
sub-50 ms timings are scheduler noise, not signal. Telemetry counters are
deterministic for a (scale, seed) pair, so a counter mismatch means the
simulation itself changed; that is reported as a drift note (and should
come with a baseline update in the same change), but only *timing*
regressions fail the run.

Each entry also records counter *rates* (counter / wall second, e.g.
planner candidates evaluated per second) — informational only, never
gated. Three overhead probes re-run ``fig12`` with (a) a live SLO guard,
(b) the hot-path profiler installed, and (c) the simulated-time series
sampler installed, each interleaved against a fresh probe-off measurement
and gated at 1.05x; the profiler entry additionally records the per-phase
wall-time breakdown under a ``profile`` key, and the sampler entry records
the capture's series/point counts under a ``timeseries`` key. A fourth
probe times the whole-repo interprocedural flow analysis (``flow-lint``)
against an absolute wall-clock budget, since that pass gates CI on every
change.

``--inject-slowdown FACTOR`` multiplies the measured wall times before
comparison — a synthetic regression used by the harness's own tests and
for verifying a CI wiring end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.registry import REGISTRY, run_experiment  # noqa: E402
from repro.telemetry import get_registry, set_registry  # noqa: E402
from repro.telemetry.metrics import MetricsRegistry  # noqa: E402

JSON_SCHEMA = "repro-bench/v1"
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results" / "bench.json"

#: Counters whose totals are recorded per experiment. Deterministic for a
#: fixed (scale, seed), so they double as a cheap behavioral fingerprint.
TRACKED_COUNTERS = (
    "repro_faas_invocations_total",
    "repro_faas_cold_starts_total",
    "repro_scheduler_reallocations_total",
    "repro_scheduler_searches_total",
    "repro_planner_candidates_evaluated_total",
    "repro_profiler_points_evaluated_total",
)

#: Baselines faster than this are pure timer noise; their wall-clock is
#: recorded but never compared.
MIN_COMPARABLE_WALL_S = 0.05

#: SLO-guard overhead probe: re-run this experiment with a live event bus
#: and guard attached and assert the hook layer stays under the ratio.
GUARD_BASE_EXPERIMENT = "fig12"
GUARD_ENTRY = "fig12+slo-guard"
GUARD_OVERHEAD_RATIO = 1.05

#: Profiler overhead probe: the same experiment with the hot-path profiler
#: installed; its phase hooks must stay under the same ratio.
PROFILE_ENTRY = "fig12+profiler"
PROFILE_OVERHEAD_RATIO = 1.05

#: Time-series sampler overhead probe: the same experiment with the
#: simulated-time sampler recording; its epoch/event hooks must stay under
#: the same ratio.
TS_ENTRY = "fig12+timeseries"
TS_OVERHEAD_RATIO = 1.05

#: Run-bundle probe: the same experiment with every --save-run collector
#: forced on (registry, tracer, event log, sampler) plus bundle
#: serialization and a content-addressed store write at exit; the whole
#: ride-along must stay under the same ratio.
SAVE_RUN_ENTRY = "fig12+save-run"
SAVE_RUN_OVERHEAD_RATIO = 1.05

#: Event-kernel probe: the Fig-12 workloads re-trained with the run
#: journal recording (and fsyncing) every epoch boundary, interleaved
#: against journal-off twins of the same runs. Prices the whole
#: crash-consistency ride-along on the unified kernel's epoch loop.
KERNEL_ENTRY = "fig12+kernel"
KERNEL_OVERHEAD_RATIO = 1.05

#: Chaos matrix (--chaos): every Fig-12 workload must complete under the
#: default fault profile — recovering via retries, checkpoint restores and
#: Pareto replanning — with JCT inflated at most this much over fault-free.
CHAOS_INFLATION_LIMIT = 2.0
CHAOS_BUDGET_MULTIPLE = 2.5

#: Flow-analysis wall-time probe: the whole-repo interprocedural pass
#: (symbol table, call graph, and all REP009–REP013 dataflow rules over
#: ``src/repro``) must stay under this absolute budget. The pass gates CI
#: and is meant to run on every change, so it has to remain cheap as the
#: tree grows; the budget is deliberately loose against machine speed
#: (the pass takes ~1 s on a dev box) while still catching an accidental
#: fixpoint blowup or quadratic resolution step.
FLOW_ENTRY = "flow-lint"
FLOW_BUDGET_WALL_S = 10.0


def _rates(counters: dict, wall_s: float) -> dict:
    """Counter throughput per wall second (e.g. planner candidates/sec).

    Wall time is machine-dependent, so rates are informational — the
    compare step never gates on them — but they make "the planner got
    slower per candidate" visible at a glance across bench records.
    """
    if wall_s <= 0:
        return {}
    return {
        f"{name}_per_s": round(value / wall_s, 1)
        for name, value in sorted(counters.items())
    }


def measure(experiment: str, scale: str, seed: int, rounds: int) -> dict:
    """Best-of-``rounds`` wall time + telemetry counter totals."""
    walls: list[float] = []
    counters: dict[str, float] = {}
    for _ in range(rounds):
        registry = MetricsRegistry()
        prev = get_registry()
        set_registry(registry)
        start = time.perf_counter()
        try:
            run_experiment(experiment, scale=scale, seed=seed)
        finally:
            set_registry(prev)
        walls.append(time.perf_counter() - start)
        counters = {
            snap.name: sum(s.value for s in snap.samples)
            for snap in registry.snapshot()
            if snap.name in TRACKED_COUNTERS
        }
    wall = round(min(walls), 4)
    return {"wall_s": wall, "counters": counters, "rates": _rates(counters, wall)}


def measure_guarded(experiment: str, scale: str, seed: int, rounds: int) -> dict:
    """Like :func:`measure`, with a live event bus + SLO guard attached.

    The spec's limits are set far beyond any run so no alert ever fires:
    the measurement isolates the pure hook-bus + accounting overhead.
    """
    from repro.slo import EventBus, SLOGuard, SLOSpec
    from repro.slo.events import get_event_bus, set_event_bus

    walls: list[float] = []
    counters: dict[str, float] = {}
    for _ in range(rounds):
        spec = SLOSpec(name="overhead-probe", deadline_s=1e15, budget_usd=1e15)
        bus = EventBus()
        bus.subscribe(SLOGuard(spec).on_event)
        registry = MetricsRegistry()
        prev_registry = get_registry()
        prev_bus = get_event_bus()
        set_registry(registry)
        set_event_bus(bus)
        start = time.perf_counter()
        try:
            run_experiment(experiment, scale=scale, seed=seed)
        finally:
            set_registry(prev_registry)
            set_event_bus(prev_bus)
        walls.append(time.perf_counter() - start)
        counters = {
            snap.name: sum(s.value for s in snap.samples)
            for snap in registry.snapshot()
            if snap.name in TRACKED_COUNTERS
        }
    wall = round(min(walls), 4)
    return {"wall_s": wall, "counters": counters, "rates": _rates(counters, wall)}


def _phase_breakdown(profiler) -> dict:
    """Top-level profiling frames (depth <= 2) for a bench entry."""
    from repro.profiling import capture_payload

    payload = capture_payload(profiler)
    return {
        frame["path"]: {
            "n_calls": frame["n_calls"],
            "total_s": round(frame["total_s"], 4),
            "self_s": round(frame["self_s"], 4),
        }
        for frame in payload["frames"]
        if frame["depth"] <= 2
    }


def measure_profiled(experiment: str, scale: str, seed: int, rounds: int) -> dict:
    """Like :func:`measure`, with the hot-path profiler installed.

    The returned entry carries a ``profile`` key: per-phase wall-time
    breakdowns (planner phases, scheduler re-plans, epoch execution) from
    the run's ``repro-profile/v1`` aggregates.
    """
    from repro.profiling import Profiler, get_profiler, set_profiler

    walls: list[float] = []
    counters: dict[str, float] = {}
    breakdown: dict = {}
    for _ in range(rounds):
        profiler = Profiler()
        registry = MetricsRegistry()
        prev_registry = get_registry()
        prev_profiler = get_profiler()
        set_registry(registry)
        set_profiler(profiler)
        start = time.perf_counter()
        try:
            run_experiment(experiment, scale=scale, seed=seed)
        finally:
            set_registry(prev_registry)
            set_profiler(prev_profiler)
            profiler.close()
        walls.append(time.perf_counter() - start)
        counters = {
            snap.name: sum(s.value for s in snap.samples)
            for snap in registry.snapshot()
            if snap.name in TRACKED_COUNTERS
        }
        breakdown = _phase_breakdown(profiler)
    wall = round(min(walls), 4)
    return {
        "wall_s": wall,
        "counters": counters,
        "rates": _rates(counters, wall),
        "profile": breakdown,
    }


def measure_profile_overhead(
    experiment: str, scale: str, seed: int, rounds: int
) -> tuple[dict, dict]:
    """(profiler-off, profiler-on) entries from interleaved best-of pairs.

    Same discipline as :func:`measure_guard_overhead`: alternate the two
    variants so load drift cancels, then compare each side's best.
    """
    pairs = max(3, rounds)
    base = measure(experiment, scale, seed, 1)
    profiled = measure_profiled(experiment, scale, seed, 1)
    for _ in range(pairs - 1):
        base_again = measure(experiment, scale, seed, 1)
        profiled_again = measure_profiled(experiment, scale, seed, 1)
        if base_again["wall_s"] < base["wall_s"]:
            base = base_again
        if profiled_again["wall_s"] < profiled["wall_s"]:
            profiled = profiled_again
    return base, profiled


def measure_sampled(experiment: str, scale: str, seed: int, rounds: int) -> dict:
    """Like :func:`measure`, with the simulated-time sampler installed.

    The returned entry carries a ``timeseries`` key: how many series,
    stored points and markers the capture held — a cheap fingerprint of
    what the sampler actually recorded during the bench run.
    """
    from repro.timeseries import TimeSeriesSampler, get_sampler, set_sampler

    walls: list[float] = []
    counters: dict[str, float] = {}
    recorded: dict = {}
    for _ in range(rounds):
        sampler = TimeSeriesSampler()
        registry = MetricsRegistry()
        prev_registry = get_registry()
        prev_sampler = get_sampler()
        set_registry(registry)
        set_sampler(sampler)
        start = time.perf_counter()
        try:
            run_experiment(experiment, scale=scale, seed=seed)
        finally:
            set_registry(prev_registry)
            set_sampler(prev_sampler)
        walls.append(time.perf_counter() - start)
        counters = {
            snap.name: sum(s.value for s in snap.samples)
            for snap in registry.snapshot()
            if snap.name in TRACKED_COUNTERS
        }
        recorded = {
            "n_series": len(sampler.series),
            "n_points": sampler.n_points(),
            "n_markers": len(sampler.markers),
        }
    wall = round(min(walls), 4)
    return {
        "wall_s": wall,
        "counters": counters,
        "rates": _rates(counters, wall),
        "timeseries": recorded,
    }


def measure_sampler_overhead(
    experiment: str, scale: str, seed: int, rounds: int
) -> tuple[dict, dict]:
    """(sampler-off, sampler-on) entries from interleaved best-of pairs.

    Same discipline as :func:`measure_guard_overhead`: alternate the two
    variants so load drift cancels, then compare each side's best.
    """
    pairs = max(3, rounds)
    base = measure(experiment, scale, seed, 1)
    sampled = measure_sampled(experiment, scale, seed, 1)
    for _ in range(pairs - 1):
        base_again = measure(experiment, scale, seed, 1)
        sampled_again = measure_sampled(experiment, scale, seed, 1)
        if base_again["wall_s"] < base["wall_s"]:
            base = base_again
        if sampled_again["wall_s"] < sampled["wall_s"]:
            sampled = sampled_again
    return base, sampled


def measure_saved(experiment: str, scale: str, seed: int, rounds: int) -> dict:
    """Like :func:`measure`, with the full --save-run ride-along attached.

    Forces on every collector ``--save-run`` forces on (metrics registry,
    tracer, SLO event log, time-series sampler), then — still inside the
    timed region — serializes the bundle and saves it into a throwaway
    content-addressed store, so the entry prices the whole ride-along:
    collection, serialization, hashing and store writes. The returned
    entry carries a ``bundle`` key with the artifact count and total
    stored bytes as a fingerprint of what the saver captured.
    """
    import shutil
    import tempfile

    from repro.runs import ProvenanceStamp, RunStore, save_run
    from repro.slo import SLOSession
    from repro.telemetry.session import TelemetrySession
    from repro.timeseries import TimeSeriesSession

    walls: list[float] = []
    counters: dict[str, float] = {}
    recorded: dict = {}
    for _ in range(rounds):
        stamp = ProvenanceStamp.collect("bench", workload=experiment, seed=seed)
        tmp = tempfile.mkdtemp(prefix="repro-bench-runs-")
        try:
            start = time.perf_counter()
            with (
                TelemetrySession(meta=stamp, force_install=True) as telemetry,
                SLOSession(meta=stamp, force_log=True) as slo,
                TimeSeriesSession(meta=stamp, force_install=True) as ts,
            ):
                run_experiment(experiment, scale=scale, seed=seed)
            bundle = save_run(
                RunStore(tmp), stamp,
                telemetry=telemetry, slo=slo, timeseries=ts,
            )
            walls.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        counters = {
            snap.name: sum(s.value for s in snap.samples)
            for snap in telemetry.registry.snapshot()
            if snap.name in TRACKED_COUNTERS
        }
        recorded = {
            "n_artifacts": len(bundle.artifacts),
            "n_bytes": sum(
                len(a.text.encode("utf-8")) for a in bundle.artifacts
            ),
        }
    wall = round(min(walls), 4)
    return {
        "wall_s": wall,
        "counters": counters,
        "rates": _rates(counters, wall),
        "bundle": recorded,
    }


def measure_save_run_overhead(
    experiment: str, scale: str, seed: int, rounds: int
) -> tuple[dict, dict]:
    """(save-run-off, save-run-on) entries from interleaved best-of pairs.

    Same discipline as :func:`measure_guard_overhead`: alternate the two
    variants so load drift cancels, then compare each side's best.
    """
    pairs = max(3, rounds)
    base = measure(experiment, scale, seed, 1)
    saved = measure_saved(experiment, scale, seed, 1)
    for _ in range(pairs - 1):
        base_again = measure(experiment, scale, seed, 1)
        saved_again = measure_saved(experiment, scale, seed, 1)
        if base_again["wall_s"] < base["wall_s"]:
            base = base_again
        if saved_again["wall_s"] < saved["wall_s"]:
            saved = saved_again
    return base, saved


def measure_guard_overhead(
    experiment: str, scale: str, seed: int, rounds: int
) -> tuple[dict, dict]:
    """(guard-off, guard-on) entries from interleaved best-of pairs.

    Machine load drifts over the minutes a bench run takes; measuring the
    two variants back to back per round (at least two rounds) and taking
    each side's best keeps the overhead ratio about the hook bus rather
    than about the machine.
    """
    pairs = max(3, rounds)
    base = measure(experiment, scale, seed, 1)
    guarded = measure_guarded(experiment, scale, seed, 1)
    for _ in range(pairs - 1):
        base_again = measure(experiment, scale, seed, 1)
        guarded_again = measure_guarded(experiment, scale, seed, 1)
        if base_again["wall_s"] < base["wall_s"]:
            base = base_again
        if guarded_again["wall_s"] < guarded["wall_s"]:
            guarded = guarded_again
    return base, guarded


def measure_kernel_training(
    scale: str, seed: int, journal: bool
) -> dict:
    """Wall time for the Fig-12 workload trainings, journal on or off.

    The unified event kernel has no "off" switch — every run dispatches
    through it — so the measurable ride-along is the write-ahead journal:
    one record plus an fsync per epoch boundary. Journal-on runs write
    into a throwaway directory that is removed afterwards.
    """
    import shutil
    import tempfile

    from repro.experiments.harness import get_scale
    from repro.kernel import RunJournal
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    tmp = tempfile.mkdtemp(prefix="repro-bench-journal-") if journal else None
    n_records = 0
    try:
        start = time.perf_counter()
        for name in get_scale(scale).workloads:
            profile = profile_workload(name)
            budget = training_envelope(workload(name), profile).budget(
                CHAOS_BUDGET_MULTIPLE
            )
            wal = None
            if tmp is not None:
                wal = RunJournal.create(
                    Path(tmp) / f"{name}.journal",
                    run={"command": "bench", "workload": name},
                )
            try:
                run_training(
                    name, budget_usd=budget, seed=seed, profile=profile,
                    journal=wal,
                )
                if wal is not None:
                    n_records += wal.n_epochs_journaled
                    wal.commit()
            finally:
                if wal is not None:
                    wal.close()
        wall = round(time.perf_counter() - start, 4)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    entry = {"wall_s": wall, "counters": {}, "rates": {}}
    if journal:
        entry["journal"] = {"n_epoch_records": n_records}
    return entry


def measure_kernel_overhead(
    scale: str, seed: int, rounds: int
) -> tuple[dict, dict]:
    """(journal-off, journal-on) entries from interleaved best-of pairs.

    Same discipline as :func:`measure_guard_overhead`, with more pairs:
    the journal's true cost (~100 fsyncs against seconds of training)
    sits well inside scheduler noise, so each side needs more samples
    for its best to converge on the real minimum.
    """
    pairs = max(8, rounds)
    base = measure_kernel_training(scale, seed, journal=False)
    journaled = measure_kernel_training(scale, seed, journal=True)
    for _ in range(pairs - 1):
        base_again = measure_kernel_training(scale, seed, journal=False)
        journaled_again = measure_kernel_training(scale, seed, journal=True)
        if base_again["wall_s"] < base["wall_s"]:
            base = base_again
        if journaled_again["wall_s"] < journaled["wall_s"]:
            journaled = journaled_again
    return base, journaled


def run_chaos_matrix(scale: str, seed: int) -> tuple[dict, list[str]]:
    """Fault-free vs default-chaos training per Fig-12 workload.

    Returns ``(entries, failures)``: one entry per workload with the clean
    and chaos JCTs (simulated seconds — deterministic, unlike wall-clock)
    and the fault/recovery counts, plus a failure line for every workload
    that crashed outright or inflated beyond ``CHAOS_INFLATION_LIMIT``.
    """
    from repro.common.errors import ReproError
    from repro.experiments.harness import get_scale
    from repro.faults import FaultPlan
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    plan = FaultPlan.default_profile()
    entries: dict[str, dict] = {}
    failures: list[str] = []
    for name in get_scale(scale).workloads:
        profile = profile_workload(name)
        budget = training_envelope(workload(name), profile).budget(
            CHAOS_BUDGET_MULTIPLE
        )
        clean = run_training(
            name, budget_usd=budget, seed=seed, profile=profile
        ).result
        try:
            chaos = run_training(
                name, budget_usd=budget, seed=seed, profile=profile,
                fault_plan=plan,
            ).result
        except ReproError as exc:
            failures.append(f"{name}: chaos run failed to complete: {exc}")
            entries[name] = {"clean_jct_s": round(clean.jct_s, 4),
                             "error": str(exc)}
            continue
        inflation = chaos.jct_s / clean.jct_s if clean.jct_s > 0 else float("inf")
        summary = chaos.extra.get("faults", {})
        entries[name] = {
            "clean_jct_s": round(clean.jct_s, 4),
            "chaos_jct_s": round(chaos.jct_s, 4),
            "inflation": round(inflation, 4),
            "n_faults": summary.get("n_faults", 0),
            "n_recoveries": summary.get("n_recoveries", 0),
            "restarts": chaos.n_restarts,
        }
        print(f"  chaos:{name:20s} clean {clean.jct_s:9.2f} s -> "
              f"chaos {chaos.jct_s:9.2f} s ({inflation:.2f}x, "
              f"{summary.get('n_faults', 0)} faults)")
        if inflation > CHAOS_INFLATION_LIMIT:
            failures.append(
                f"{name}: chaos JCT inflation {inflation:.2f}x exceeds "
                f"{CHAOS_INFLATION_LIMIT:.2f}x limit"
            )
        if not summary.get("n_faults"):
            failures.append(
                f"{name}: default profile injected no faults — the chaos "
                "matrix is not exercising recovery"
            )
    return entries, failures


def run_combined_chaos_scenario(scale: str, seed: int) -> tuple[dict, list[str]]:
    """Combined scenario: invocation timeout + storage throttle + mid-run kill.

    Layers three fault axes the matrix otherwise exercises one at a time:
    an invocation timeout, a long storage throttle window, and a simulated
    SIGKILL halfway through a journaled run (the journal is truncated to
    half its epoch records plus a torn half-line, then resumed). Runs the
    first Fig-12 workload of the scale and gates on (a) the resumed run
    finishing with JCT <= ``CHAOS_INFLATION_LIMIT`` x fault-free and
    (b) the resumed journal matching the uninterrupted run's byte for byte.
    """
    import shutil
    import tempfile

    from repro.common.errors import ReproError
    from repro.experiments.harness import get_scale
    from repro.faults.plan import (
        ANY_STORAGE, FaultPlan, StorageFaultSpec, ThrottleWindow,
    )
    from repro.kernel import RunJournal
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    name = get_scale(scale).workloads[0]
    plan = FaultPlan(
        name="combined-timeout-throttle-kill",
        invocation_timeout_s=30.0,
        storage={
            ANY_STORAGE: StorageFaultSpec(
                transient_prob=0.05,
                max_errors=2,
                error_timeout_s=1.0,
                throttle_windows=(
                    ThrottleWindow(start_s=10.0, duration_s=300.0,
                                   slowdown=2.0),
                ),
            )
        },
    )
    profile = profile_workload(name)
    budget = training_envelope(workload(name), profile).budget(
        CHAOS_BUDGET_MULTIPLE
    )
    clean = run_training(
        name, budget_usd=budget, seed=seed, profile=profile
    ).result

    failures: list[str] = []
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-combined-"))
    try:
        journal_path = tmp / "combined.journal"
        header = {"command": "bench-combined", "workload": name}
        try:
            with RunJournal.create(journal_path, run=header) as wal:
                run_training(
                    name, budget_usd=budget, seed=seed, profile=profile,
                    fault_plan=plan, journal=wal,
                )
                wal.commit()
        except ReproError as exc:
            return ({"error": str(exc)}, [
                f"{name}: combined scenario failed before the kill: {exc}"
            ])
        finished = journal_path.read_bytes()
        lines = finished.decode().splitlines()
        n_epochs = sum(1 for s in lines if '"kind": "epoch"' in s)

        # Simulated SIGKILL at the halfway epoch boundary: keep half the
        # fsynced records plus a torn half-written line, then resume.
        kept = lines[: 1 + n_epochs // 2]
        torn = lines[1 + n_epochs // 2][:40]
        journal_path.write_bytes(("\n".join(kept) + "\n" + torn).encode())
        try:
            with RunJournal.open_resume(journal_path) as wal:
                resumed = run_training(
                    name, budget_usd=budget, seed=seed, profile=profile,
                    fault_plan=plan, journal=wal,
                ).result
                wal.commit()
        except ReproError as exc:
            return ({"error": str(exc)}, [
                f"{name}: combined scenario failed to resume: {exc}"
            ])
        if journal_path.read_bytes() != finished:
            failures.append(
                f"{name}: resumed journal diverges from the uninterrupted "
                "run's bytes"
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    inflation = (
        resumed.jct_s / clean.jct_s if clean.jct_s > 0 else float("inf")
    )
    summary = resumed.extra.get("faults", {})
    entry = {
        "workload": name,
        "clean_jct_s": round(clean.jct_s, 4),
        "chaos_jct_s": round(resumed.jct_s, 4),
        "inflation": round(inflation, 4),
        "n_faults": summary.get("n_faults", 0),
        "n_recoveries": summary.get("n_recoveries", 0),
        "kill_epoch": n_epochs // 2,
        "n_epochs": n_epochs,
    }
    print(f"  chaos:combined({name}) clean {clean.jct_s:9.2f} s -> "
          f"resumed {resumed.jct_s:9.2f} s ({inflation:.2f}x, "
          f"killed at epoch {n_epochs // 2}/{n_epochs})")
    if inflation > CHAOS_INFLATION_LIMIT:
        failures.append(
            f"{name}: combined-scenario JCT inflation {inflation:.2f}x "
            f"exceeds {CHAOS_INFLATION_LIMIT:.2f}x limit"
        )
    if not summary.get("n_faults"):
        failures.append(
            f"{name}: combined scenario injected no faults — timeout and "
            "throttle axes are not engaging"
        )
    return entry, failures


def measure_flow_lint(rounds: int) -> dict:
    """Best-of-``rounds`` wall time for the whole-repo flow analysis.

    Runs the full interprocedural pass — project index, clock-taint
    fixpoint, RNG hygiene, schema cross-check —
    over ``src/repro``, exactly what the ``flow-analysis`` CI step and
    ``repro lint --flow`` execute. Counters record the analyzed file and
    finding counts so a silent scope regression (the walker skipping
    half the tree, say) shows up as counter drift in the bench document.
    """
    from repro.analysis import analyze_flow

    walls: list[float] = []
    n_files = 0
    n_findings = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = analyze_flow([REPO_ROOT / "src" / "repro"])
        walls.append(time.perf_counter() - start)
        n_files = result.files_analyzed
        n_findings = len(result.findings)
    wall = round(min(walls), 4)
    counters = {
        "repro_flow_files_analyzed_total": float(n_files),
        "repro_flow_findings_total": float(n_findings),
    }
    return {"wall_s": wall, "counters": counters,
            "rates": _rates(counters, wall)}


def run_suite(
    experiments: list[str], scale: str, seed: int, rounds: int,
    slowdown: float = 1.0,
) -> dict:
    results: dict[str, dict] = {}
    for exp in experiments:
        entry = measure(exp, scale, seed, rounds)
        if slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * slowdown, 4)
        results[exp] = entry
        print(f"  {exp:20s} {entry['wall_s']:9.3f} s")
    return {
        "schema": JSON_SCHEMA,
        "scale": scale,
        "seed": seed,
        "rounds": rounds,
        "experiments": results,
    }


def compare(current: dict, baseline: dict, threshold: float
            ) -> tuple[list[str], list[str]]:
    """Returns (timing regressions, informational drift notes)."""
    regressions: list[str] = []
    notes: list[str] = []
    if baseline.get("scale") != current["scale"] or baseline.get("seed") != current["seed"]:
        notes.append(
            f"baseline ran at scale={baseline.get('scale')} seed={baseline.get('seed')}; "
            f"current is scale={current['scale']} seed={current['seed']} — skipping compare"
        )
        return regressions, notes
    base_entries = baseline.get("experiments", {})
    for exp, entry in current["experiments"].items():
        base = base_entries.get(exp)
        if base is None:
            notes.append(f"{exp}: new experiment, no baseline entry")
            continue
        wall, base_wall = entry["wall_s"], base["wall_s"]
        if base_wall >= MIN_COMPARABLE_WALL_S and wall > base_wall * threshold:
            regressions.append(
                f"{exp}: {wall:.3f} s vs baseline {base_wall:.3f} s "
                f"({wall / base_wall:.2f}x > {threshold:.2f}x threshold)"
            )
        for name, value in entry["counters"].items():
            base_value = base.get("counters", {}).get(name)
            if base_value is not None and base_value != value:
                notes.append(
                    f"{exp}: counter {name} changed "
                    f"{base_value:g} -> {value:g} (behavioral drift; "
                    "update the baseline if intended)"
                )
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiments",
        help="comma-separated experiment ids (default: the full registry)",
    )
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="timing rounds per experiment (best-of)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="fail when wall time exceeds baseline x this")
    parser.add_argument("--out", type=Path, default=DEFAULT_RESULTS,
                        help="where to write the bench document")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline to compare against (default: --out)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record without comparing")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI smoke mode)")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        metavar="FACTOR",
                        help="multiply measured wall times (self-test hook)")
    parser.add_argument("--chaos", action="store_true",
                        help="also run the fault-injection matrix: every "
                             "Fig-12 workload under the default chaos "
                             "profile, gated on completion and JCT "
                             f"inflation <= {CHAOS_INFLATION_LIMIT}x")
    args = parser.parse_args(argv)

    available = REGISTRY.available()
    if args.experiments:
        experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
        unknown = sorted(set(experiments) - set(available))
        if unknown:
            parser.error(f"unknown experiments: {', '.join(unknown)}")
    else:
        experiments = list(available)

    baseline_path = args.baseline if args.baseline is not None else args.out
    baseline = None
    if not args.update_baseline and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())

    print(f"benchmarking {len(experiments)} experiment(s) at scale={args.scale} "
          f"seed={args.seed} rounds={args.rounds}")
    current = run_suite(
        experiments, args.scale, args.seed, args.rounds,
        slowdown=args.inject_slowdown,
    )

    # SLO-guard overhead probe: same experiment, live hook bus attached.
    # Compared within-run against a freshly interleaved guard-off
    # measurement, so the check is immune both to machine-to-machine speed
    # differences and to load drift across the minutes of a full suite.
    guard_regressions: list[str] = []
    if GUARD_BASE_EXPERIMENT in current["experiments"]:
        base, entry = measure_guard_overhead(
            GUARD_BASE_EXPERIMENT, args.scale, args.seed, args.rounds
        )
        if args.inject_slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
            base["wall_s"] = round(base["wall_s"] * args.inject_slowdown, 4)
        current["experiments"][GUARD_ENTRY] = entry
        print(f"  {GUARD_ENTRY:20s} {entry['wall_s']:9.3f} s"
              f"  (interleaved guard-off {base['wall_s']:.3f} s)")
        base_wall = base["wall_s"]
        if (
            base_wall >= MIN_COMPARABLE_WALL_S
            and entry["wall_s"] > base_wall * GUARD_OVERHEAD_RATIO
        ):
            guard_regressions.append(
                f"{GUARD_ENTRY}: {entry['wall_s']:.3f} s vs guard-off "
                f"{base_wall:.3f} s ({entry['wall_s'] / base_wall:.2f}x > "
                f"{GUARD_OVERHEAD_RATIO:.2f}x hook-bus overhead budget)"
            )

    # Profiler overhead probe: the same experiment with the hot-path
    # profiler installed. The phase hooks are supposed to be cheap enough
    # to leave on for any bench run; this keeps that promise honest.
    if GUARD_BASE_EXPERIMENT in current["experiments"]:
        base, entry = measure_profile_overhead(
            GUARD_BASE_EXPERIMENT, args.scale, args.seed, args.rounds
        )
        if args.inject_slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
            base["wall_s"] = round(base["wall_s"] * args.inject_slowdown, 4)
        current["experiments"][PROFILE_ENTRY] = entry
        print(f"  {PROFILE_ENTRY:20s} {entry['wall_s']:9.3f} s"
              f"  (interleaved profiler-off {base['wall_s']:.3f} s)")
        base_wall = base["wall_s"]
        if (
            base_wall >= MIN_COMPARABLE_WALL_S
            and entry["wall_s"] > base_wall * PROFILE_OVERHEAD_RATIO
        ):
            guard_regressions.append(
                f"{PROFILE_ENTRY}: {entry['wall_s']:.3f} s vs profiler-off "
                f"{base_wall:.3f} s ({entry['wall_s'] / base_wall:.2f}x > "
                f"{PROFILE_OVERHEAD_RATIO:.2f}x phase-hook overhead budget)"
            )

    # Time-series sampler overhead probe: the same experiment with the
    # simulated-time sampler recording every epoch boundary and bus event.
    # The null-object default means runs without the sampler pay one
    # attribute check; this keeps the sampler-on path cheap too.
    if GUARD_BASE_EXPERIMENT in current["experiments"]:
        base, entry = measure_sampler_overhead(
            GUARD_BASE_EXPERIMENT, args.scale, args.seed, args.rounds
        )
        if args.inject_slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
            base["wall_s"] = round(base["wall_s"] * args.inject_slowdown, 4)
        current["experiments"][TS_ENTRY] = entry
        print(f"  {TS_ENTRY:20s} {entry['wall_s']:9.3f} s"
              f"  (interleaved sampler-off {base['wall_s']:.3f} s)")
        base_wall = base["wall_s"]
        if (
            base_wall >= MIN_COMPARABLE_WALL_S
            and entry["wall_s"] > base_wall * TS_OVERHEAD_RATIO
        ):
            guard_regressions.append(
                f"{TS_ENTRY}: {entry['wall_s']:.3f} s vs sampler-off "
                f"{base_wall:.3f} s ({entry['wall_s'] / base_wall:.2f}x > "
                f"{TS_OVERHEAD_RATIO:.2f}x sampling overhead budget)"
            )

    # Run-bundle probe: the same experiment with every --save-run collector
    # forced on plus bundle serialization and the store write. Prices the
    # full provenance ride-along, not just one collector.
    if GUARD_BASE_EXPERIMENT in current["experiments"]:
        base, entry = measure_save_run_overhead(
            GUARD_BASE_EXPERIMENT, args.scale, args.seed, args.rounds
        )
        if args.inject_slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
            base["wall_s"] = round(base["wall_s"] * args.inject_slowdown, 4)
        current["experiments"][SAVE_RUN_ENTRY] = entry
        print(f"  {SAVE_RUN_ENTRY:20s} {entry['wall_s']:9.3f} s"
              f"  (interleaved save-run-off {base['wall_s']:.3f} s)")
        base_wall = base["wall_s"]
        if (
            base_wall >= MIN_COMPARABLE_WALL_S
            and entry["wall_s"] > base_wall * SAVE_RUN_OVERHEAD_RATIO
        ):
            guard_regressions.append(
                f"{SAVE_RUN_ENTRY}: {entry['wall_s']:.3f} s vs save-run-off "
                f"{base_wall:.3f} s ({entry['wall_s'] / base_wall:.2f}x > "
                f"{SAVE_RUN_OVERHEAD_RATIO:.2f}x run-bundle overhead budget)"
            )

    # Event-kernel probe: the same workloads re-trained with the run
    # journal recording (and fsyncing) every epoch boundary, against
    # interleaved journal-off twins. Everything dispatches through the
    # unified kernel either way; the delta prices crash consistency.
    if GUARD_BASE_EXPERIMENT in current["experiments"]:
        base, entry = measure_kernel_overhead(
            args.scale, args.seed, args.rounds
        )
        if args.inject_slowdown != 1.0:
            entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
            base["wall_s"] = round(base["wall_s"] * args.inject_slowdown, 4)
        current["experiments"][KERNEL_ENTRY] = entry
        print(f"  {KERNEL_ENTRY:20s} {entry['wall_s']:9.3f} s"
              f"  (interleaved journal-off {base['wall_s']:.3f} s)")
        base_wall = base["wall_s"]
        if (
            base_wall >= MIN_COMPARABLE_WALL_S
            and entry["wall_s"] > base_wall * KERNEL_OVERHEAD_RATIO
        ):
            guard_regressions.append(
                f"{KERNEL_ENTRY}: {entry['wall_s']:.3f} s vs journal-off "
                f"{base_wall:.3f} s ({entry['wall_s'] / base_wall:.2f}x > "
                f"{KERNEL_OVERHEAD_RATIO:.2f}x journal overhead budget)"
            )

    # Flow-analysis wall-time probe: the interprocedural lint layer gates
    # CI on every change, so its own cost is a budgeted quantity. Unlike
    # the overhead probes above this is an absolute budget, not a ratio —
    # the pass has no "off" variant to interleave against.
    entry = measure_flow_lint(args.rounds)
    if args.inject_slowdown != 1.0:
        entry["wall_s"] = round(entry["wall_s"] * args.inject_slowdown, 4)
    current["experiments"][FLOW_ENTRY] = entry
    print(f"  {FLOW_ENTRY:20s} {entry['wall_s']:9.3f} s"
          f"  (budget {FLOW_BUDGET_WALL_S:.1f} s)")
    # Like the baseline compare (and unlike the deterministic chaos
    # verdicts), this is a wall-clock gate: --update-baseline records
    # without judging it.
    if not args.update_baseline and entry["wall_s"] > FLOW_BUDGET_WALL_S:
        guard_regressions.append(
            f"{FLOW_ENTRY}: {entry['wall_s']:.3f} s exceeds the "
            f"{FLOW_BUDGET_WALL_S:.1f} s whole-repo flow-analysis budget"
        )

    chaos_failures: list[str] = []
    if args.chaos:
        print("chaos matrix (default fault profile)")
        chaos_entries, chaos_failures = run_chaos_matrix(args.scale, args.seed)
        combined_entry, combined_failures = run_combined_chaos_scenario(
            args.scale, args.seed
        )
        chaos_entries["combined-timeout-throttle-kill"] = combined_entry
        chaos_failures += combined_failures
        current["chaos"] = chaos_entries

    exit_code = 0
    if baseline is None:
        print("no baseline to compare against; recording only")
        regressions = []
    else:
        regressions, notes = compare(current, baseline, args.threshold)
        for note in notes:
            print(f"note: {note}")
    regressions += guard_regressions
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}")
        exit_code = 0 if args.warn_only else 1
    elif baseline is not None:
        print(f"no regressions vs {baseline_path}")
    if chaos_failures:
        # Chaos verdicts compare simulated JCTs — deterministic for a
        # (scale, seed), so they gate even under --warn-only.
        for failure in chaos_failures:
            print(f"CHAOS FAILURE: {failure}")
        exit_code = 1

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
