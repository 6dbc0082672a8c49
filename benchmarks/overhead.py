#!/usr/bin/env python
"""Interleaved on/off overhead probe for the run's ride-alongs.

Each ratio row times the same work with one ride-along off and on:

* ``slo-guard``, ``profiler``, ``timeseries``: fig12 at tiny scale, seed 0,
  with a live SLO guard on the event bus, the hot-path profiler or the
  simulated-time sampler installed;
* ``save-run``: the same fig12 run with every collector ``--save-run``
  forces on, plus the bundle write into a fresh run store;
* ``journal``: both tiny-scale Fig-12 trainings (budget x2.5) with the run
  journal recording and fsyncing every epoch boundary.

The off side is the bare run. After one untimed warm-up pass of every row,
one loop runs ``PAIRS`` pairs; within a pair the off and on runs alternate
which goes first. Every row prints the median and IQR of its on/off ratio in
wall time (``perf_counter``) and process time (``process_time``). The
``flow-lint`` row times the whole-repo interprocedural lint pass in the same
loop against an absolute budget. The probe exits 1 when a median wall reading
exceeds its bound::

    PYTHONPATH=src python benchmarks/overhead.py
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.harness import get_scale  # noqa: E402
from repro.experiments.registry import run_experiment  # noqa: E402

PAIRS = 10
RATIO_BOUND = 1.05
FLOW_BUDGET_S = 10.0


@dataclass(frozen=True)
class Row:
    """One probe row. ``on`` and ``off`` take a fresh scratch directory.

    With ``off`` set, the row's reading is the on/off ratio of each pair;
    with ``off=None`` it is ``on``'s own time in seconds. Either way the
    median wall reading must stay at or under ``bound``.
    """

    name: str
    on: Callable[[Path], object]
    off: Callable[[Path], object] | None = None
    bound: float = RATIO_BOUND


def _fig12(_scratch: Path) -> None:
    run_experiment("fig12", scale="tiny", seed=0)


def _slo_guard(scratch: Path) -> None:
    # Limits far beyond any run: no alert fires, only the hook bus and the
    # burn-rate accounting are priced.
    from repro.slo import EventBus, SLOGuard, SLOSpec
    from repro.slo.events import get_event_bus, set_event_bus

    bus = EventBus()
    bus.subscribe(SLOGuard(SLOSpec(name="overhead-probe", deadline_s=1e15,
                                   budget_usd=1e15)).on_event)
    prev = get_event_bus()
    set_event_bus(bus)
    try:
        _fig12(scratch)
    finally:
        set_event_bus(prev)


def _profiler(scratch: Path) -> None:
    from repro.profiling import Profiler, get_profiler, set_profiler

    profiler = Profiler()
    prev = get_profiler()
    set_profiler(profiler)
    try:
        _fig12(scratch)
    finally:
        set_profiler(prev)
        profiler.close()


def _sampler(scratch: Path) -> None:
    from repro.timeseries import TimeSeriesSampler, get_sampler, set_sampler

    prev = get_sampler()
    set_sampler(TimeSeriesSampler())
    try:
        _fig12(scratch)
    finally:
        set_sampler(prev)


def _save_run(scratch: Path) -> None:
    from repro.runs import ProvenanceStamp, RunStore, save_run
    from repro.slo import SLOSession
    from repro.telemetry.session import TelemetrySession
    from repro.timeseries import TimeSeriesSession

    stamp = ProvenanceStamp.collect("bench", workload="fig12", seed=0)
    with (
        TelemetrySession(meta=stamp, force_install=True) as telemetry,
        SLOSession(meta=stamp, force_log=True) as slo,
        TimeSeriesSession(meta=stamp, force_install=True) as ts,
    ):
        _fig12(scratch)
    save_run(RunStore(scratch), stamp, telemetry=telemetry, slo=slo,
             timeseries=ts)


def _trainings(scratch: Path, journal: bool) -> None:
    from repro.kernel import RunJournal
    from repro.ml.models import workload
    from repro.workflow.job import training_envelope
    from repro.workflow.runner import profile_workload, run_training

    for name in get_scale("tiny").workloads:
        profile = profile_workload(name)
        budget = training_envelope(workload(name), profile).budget(2.5)
        if not journal:
            run_training(name, budget_usd=budget, seed=0, profile=profile)
            continue
        with RunJournal.create(scratch / f"{name}.journal",
                               run={"command": "bench", "workload": name}) as wal:
            run_training(name, budget_usd=budget, seed=0, profile=profile,
                         journal=wal)
            wal.commit()


def _flow_lint(_scratch: Path) -> None:
    from repro.analysis import analyze_flow

    analyze_flow([REPO_ROOT / "src" / "repro"])


ROWS = (
    Row("slo-guard", on=_slo_guard, off=_fig12),
    Row("profiler", on=_profiler, off=_fig12),
    Row("timeseries", on=_sampler, off=_fig12),
    Row("save-run", on=_save_run, off=_fig12),
    Row("journal", on=lambda d: _trainings(d, journal=True),
        off=lambda d: _trainings(d, journal=False)),
    Row("flow-lint", on=_flow_lint, bound=FLOW_BUDGET_S),
)


def median_iqr(values: list[float]) -> tuple[float, float]:
    """The median and the interquartile range (linear interpolation)."""
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q2), float(q3 - q1)


def _timed(fn: Callable[[Path], object], tmp: Path) -> tuple[float, float]:
    """(wall, process) seconds for one call, in a fresh scratch directory
    made and removed outside the timed region."""
    scratch = Path(tempfile.mkdtemp(dir=tmp))
    wall, cpu = time.perf_counter(), time.process_time()
    fn(scratch)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    shutil.rmtree(scratch)
    return wall, cpu


def _ratio(on: float, off: float) -> float:
    return on / off if off > 0 else math.inf


def measure(rows, pairs: int, tmp: Path) -> dict[str, tuple[list, list]]:
    """Per-row (wall readings, process readings), one of each per pair."""
    for row in rows:
        for fn in (row.on, row.off):
            if fn is not None:
                _timed(fn, tmp)
    readings = {row.name: ([], []) for row in rows}
    for i in range(pairs):
        for row in rows:
            walls, cpus = readings[row.name]
            if row.off is None:
                wall, cpu = _timed(row.on, tmp)
            else:
                if i % 2 == 0:
                    off, on = _timed(row.off, tmp), _timed(row.on, tmp)
                else:
                    on, off = _timed(row.on, tmp), _timed(row.off, tmp)
                wall, cpu = _ratio(on[0], off[0]), _ratio(on[1], off[1])
            walls.append(wall)
            cpus.append(cpu)
    return readings


def main(rows=ROWS, pairs: int = PAIRS) -> int:
    print(f"{pairs} interleaved pairs; median [IQR] of on/off ratios, or "
          "seconds for budget rows")
    print(f"{'row':12s} {'wall':>18s} {'process':>18s} {'bound':>9s}")
    with tempfile.TemporaryDirectory(prefix="repro-overhead-") as tmp:
        readings = measure(rows, pairs, Path(tmp))
    over = []
    for row in rows:
        unit = "x" if row.off is not None else " s"
        (wall, wall_iqr), (cpu, cpu_iqr) = (
            median_iqr(r) for r in readings[row.name]
        )
        print(f"{row.name:12s} {f'{wall:.3f}{unit} [{wall_iqr:.3f}]':>18s} "
              f"{f'{cpu:.3f}{unit} [{cpu_iqr:.3f}]':>18s} "
              f"{f'{row.bound:.2f}{unit}':>9s}")
        if wall > row.bound:
            over.append(f"{row.name}: median wall {wall:.3f}{unit} exceeds "
                        f"{row.bound:.2f}{unit}")
    for line in over:
        print(f"OVER BOUND: {line}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
