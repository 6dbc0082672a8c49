"""The repository benchmark: one command, three seeded job-mix workloads.

    python3 perfbench/run.py --workload train-adaptive --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It times ``setup_s`` over fresh child
interpreters, runs the workload's closed loop in one more child (see
``worker.py``), prints every metric by name with its unit and sample count,
and ends with one JSON line::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a separate traced run. The full result, with
host facts, the decision digest and (traced) the span records, is written to
``.perfbench/results/``. See ``NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REF_NOMINAL_S, reference_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median over this many fresh interpreters that exit once ready.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 160.0
THREAD_PINNING = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_PINNING:
        env[name] = "1"
    return env


def start_worker(args, scratch: Path, probe: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT), "--scratch", str(scratch)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    if probe:
        proc.communicate(timeout=30)
    return proc, ready_s


def run_worker(args, scratch: Path) -> tuple[dict, list[float]]:
    """Time the set-up probes, each scaled to reference speed by the loop
    passes around it, then run the worker and return its result."""
    setup = []
    if not args.trace:
        reference_s()  # the first pass pays numpy's warm-up
        before = reference_s()
        for _ in range(SETUP_SAMPLES):
            ready_s = start_worker(args, scratch, probe=True)[1]
            after = reference_s()
            setup.append(ready_s * REF_NOMINAL_S / ((before + after) / 2))
            before = after
    proc, _ = start_worker(args, scratch, probe=False)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), setup


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work / "tmp"))
    try:
        result, setup = run_worker(args, scratch)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    samples = {name: result["attempted"] for name in metrics}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        samples["setup_s"] = len(setup)
        for name in ("sim_epochs_per_s", "job_wall_p50_s", "job_wall_tail_s",
                     "sim_jct_geomean_s", "sim_cost_geomean_usd", "constraint_met_frac"):
            samples[name] = result["info"]["sample_jobs"]
        samples["peak_rss_mb"] = 1
        result["setup_samples_s"] = setup

    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"workload {args.workload}  seed {args.seed}  {mode}")
    host = result["host"]
    print(f"host     nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"scipy={host['scipy']} threads pinned to 1 via {','.join(THREAD_PINNING)}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:34s} {value:>16.6g} {unit:6s} n={samples[name]}")
    info = result["info"]
    if not args.trace:
        print(f"  job_wall_tail_s is p{info['tail']['percentile']} "
              f"({info['tail']['jobs_beyond']} of {info['sample_jobs']} jobs beyond it)")
        if info["converged_frac"] is not None:
            print(f"  converged_frac {info['converged_frac']:.4f} "
                  f"(n={info['sample_jobs']})")
        print(f"  failed_frac {info['failed_frac']:.4f} (n={info['jobs']})")
        print(f"  decision digest {info['decision_digest']}")
    for error in result["errors"]:
        print(f"  FAILED {error}")

    out_dir = work / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result["argv"] = vars(args)
    out.write_text(json.dumps(result))

    print(json.dumps({
        "correct": not result["errors"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
