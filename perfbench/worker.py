"""The benchmark's child process: one fresh interpreter per run.

It imports the program, prints ``ready`` (the parent times interpreter start
to that line as ``setup_s``), then runs one workload as a closed loop: one
client, and the next job starts only when the previous one has returned. The
last line of its standard output is one JSON object for ``run.py``.

    python3 perfbench/worker.py --workload tune-sha --seed 1 --seconds 20 \\
        --trace 0 --root . --scratch .perfbench/tmp/x
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# Runs that take longer than this stop early and report themselves incorrect,
# so that a pathological slowdown still ends inside the 180 s run limit.
MAX_LOOP_S = 140.0

# Each run's fixed sample: its first SAMPLE_BLOCKS[w] blocks of jobs, which
# every run completes (it keeps going until it has them, then until the
# window closes). Percentiles and the simulated metrics come from this sample
# only, so every run and every seed weighs the same design slots; the jobs
# after it count towards the output checks.
SAMPLE_BLOCKS = {"train-adaptive": 2, "tune-sha": 2, "train-observed": 3}

# Jobs in the traced run's fixed prefix, each run once traced and once not.
TRACE_JOBS = {"train-adaptive": 7, "tune-sha": 7, "train-observed": 21}


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else float("nan")


def tail_percentile(n: int) -> int:
    """The highest multiple of 5 percent that leaves at least ten of ``n``
    jobs beyond it (p60 of 28 jobs, p80 of 63)."""
    return 5 * math.floor(20 * (1 - 10 / n))


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Harrell-Davis estimate of a percentile, and how many samples lie
    beyond it. It weighs every order statistic by a beta kernel centred on
    the percentile, so one noisy job near the middle of a small, gappy
    sample moves it less than it moves the nearest-rank value."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    p = pct / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    value = math.fsum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered))
    value = min(max(value, ordered[0]), ordered[-1])  # rounding can leave the range
    return value, sum(x > value for x in ordered)


def timed_run(runner, workload: str, seed: int, seconds: float) -> dict:
    from calibrate import REF_NOMINAL_S, reference_s
    from workloads import block_size, decision_digest, job_stream

    sample = SAMPLE_BLOCKS[workload] * block_size(workload)
    stream = job_stream(workload, seed)
    outcomes = []
    reference_s()  # the first pass pays numpy's warm-up
    start = time.perf_counter()
    refs = [reference_s()]  # job k runs between refs[k] and refs[k + 1]
    while len(outcomes) < sample or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        outcomes.append(runner.run(next(stream)))
        refs.append(reference_s())
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [f"job {o.job.index}: {o.error}" for o in outcomes if not o.ok]
    if len(outcomes) < sample:
        errors.append(f"only {len(outcomes)} of {sample} jobs finished in {MAX_LOOP_S:.0f} s")

    walls = [
        o.wall_s * REF_NOMINAL_S / ((refs[k] + refs[k + 1]) / 2)
        for k, o in enumerate(outcomes)
    ]
    head, head_walls, raw = outcomes[:sample], walls[:sample], [o.wall_s for o in outcomes]

    # One job per run, replayed in-process, must reproduce bit for bit.
    probe = head[seed % len(head)]
    replay = runner.run(probe.job)
    if replay.simulated() != probe.simulated():
        errors.append(f"job {probe.job.index}: replay is not bit-identical")
    good = [o for o in head if o.ok]
    tail_pct = tail_percentile(sample)
    tail, beyond = percentile(head_walls, tail_pct)
    trained = [o for o in head if o.converged is not None]
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "errors": errors,
        "metrics": {
            "sim_epochs_per_s": (sum(o.sim_epochs for o in head) / sum(head_walls), "1/s"),
            "job_wall_p50_s": (percentile(head_walls, 50)[0], "s"),
            "job_wall_tail_s": (tail, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "sim_jct_geomean_s": (geomean([o.jct_s for o in good]), "s"),
            "sim_cost_geomean_usd": (geomean([o.cost_usd for o in good]), "usd"),
            "constraint_met_frac": (sum(o.constraint_met for o in head) / len(head), "frac"),
        },
        "info": {
            "jobs": len(outcomes),
            "sample_jobs": len(head),
            "tail": {"percentile": tail_pct, "jobs_beyond": beyond},
            "converged_frac": (
                sum(bool(o.converged) for o in trained) / len(trained) if trained else None
            ),
            "failed_frac": sum(not o.ok for o in outcomes) / len(outcomes),
            "decision_digest": decision_digest(head),
            "replayed_job": probe.job.index,
            "measured_s": measured_s,
            "raw_job_wall_p50_s": percentile(raw[:sample], 50)[0],
            "raw_job_wall_tail_s": percentile(raw[:sample], tail_pct)[0],
            "raw_sim_epochs_per_s": sum(o.sim_epochs for o in head) / sum(raw[:sample]),
            "reference_s": refs,
        },
        "jobs": [
            [o.job.index, o.job.model, o.job.method, o.job.objective, o.wall_s, wall,
             o.jct_s, o.cost_usd, o.sim_epochs, o.ok]
            for o, wall in zip(outcomes, walls)
        ],
    }


def traced_run(runner, workload: str, seed: int) -> dict:
    """Each job of a fixed prefix runs traced and untraced, alternating
    which goes first; the pair must agree bit for bit."""
    from layers import LayerTracer
    from workloads import first_jobs

    tracer = LayerTracer()
    errors = []
    traced_s = untraced_s = 0.0
    failed = 0
    jobs = first_jobs(workload, seed, TRACE_JOBS[workload])
    for k, job in enumerate(jobs):
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                runner.tracer = tracer
                try:
                    out = runner.run(job)
                finally:
                    runner.tracer = None
                    tracer.uninstall()
                traced_s += out.wall_s
                tracer.counts["faults.injected"] += out.faults_injected
                tracer.counts["faults.recoveries"] += out.recoveries
            else:
                out = runner.run(job)
                untraced_s += out.wall_s
            pair[traced] = out
        if not (pair[True].ok and pair[False].ok):
            failed += 1
            errors.append(f"job {job.index}: {pair[True].error or pair[False].error}")
        if pair[True].simulated() != pair[False].simulated():
            errors.append(f"job {job.index}: traced and untraced outputs differ")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return {
        "attempted": len(jobs),
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "info": {"traced_s": traced_s, "untraced_s": untraced_s},
        "spans": tracer.spans,
    }


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pinning": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
        },
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--probe", action="store_true",
                   help="exit as soon as the program is imported")
    args = p.parse_args(argv)

    import repro

    src = (Path(args.root) / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "train-observed":
        import repro.cli  # noqa: F401  (the CLI is part of what this workload sets up)
    print("ready", flush=True)
    if args.probe:
        return 0

    from workloads import JobRunner

    runner = JobRunner(Path(args.scratch), cli=args.workload == "train-observed")
    if args.trace:
        result = traced_run(runner, args.workload, args.seed)
    else:
        result = timed_run(runner, args.workload, args.seed, args.seconds)
    result["host"] = host_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
