"""Tests of the benchmark itself: its generator, checks and tracer.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import worker
from layers import LayerTracer
from workloads import WORKLOADS, JobRunner, block_size, design, first_jobs

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def runner(tmp_path):
    return JobRunner(tmp_path / "scratch", cli=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    n = 2 * block_size(workload)
    assert first_jobs(workload, 7, n) == first_jobs(workload, 7, n)
    assert first_jobs(workload, 7, n) != first_jobs(workload, 8, n)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_block_holds_the_whole_design(workload):
    def key(slot):
        return tuple(sorted(slot.items()))

    size = block_size(workload)
    jobs = first_jobs(workload, 3, 2 * size)
    expected = Counter(key(slot) for slot in design(workload))
    for block in (jobs[:size], jobs[size:]):
        got = Counter(
            key({k: getattr(j, k) for k in design(workload)[0]}) for j in block
        )
        assert got == expected
    assert [j.index for j in jobs] == list(range(2 * size))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_run_passes_every_output_check(workload, runner):
    outcomes = [runner.run(job) for job in first_jobs(workload, 1, 3)]
    for out in outcomes:
        assert out.ok, out.error
        assert out.wall_s > 0 and out.sim_epochs > 0
        assert out.jct_s > 0 and out.cost_usd > 0
        assert out.decisions


def test_a_failed_check_is_reported(runner):
    job = first_jobs("train-adaptive", 1, 1)[0]
    bad = job.__class__(**{**job.__dict__, "model": "no-such-model"})
    out = runner.run(bad)
    assert not out.ok and out.error


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree(workload, runner, monkeypatch):
    monkeypatch.setitem(worker.TRACE_JOBS, workload, 2)
    result = worker.traced_run(runner, workload, 4)
    assert result["errors"] == []
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["workflow.job.self_s"][0] > 0
    refits = metrics["training.refit.calls"][0]
    plans = metrics["tuning.plan.calls"][0]
    collectors = metrics["telemetry.span.calls"][0] + metrics["runs.save_run.self_s"][0]
    assert (refits > 0) == (workload == "train-adaptive")
    assert (plans > 0) == (workload == "tune-sha")
    assert (collectors > 0) == (workload == "train-observed")


def test_self_times_in_a_job_sum_to_its_wall_time(tmp_path):
    tracer = LayerTracer()
    runner = JobRunner(tmp_path, cli=True, tracer=tracer)
    jobs = [first_jobs(w, 2, 1)[0] for w in WORKLOADS]
    tracer.install()
    try:
        outcomes = [runner.run(job) for job in jobs]
    finally:
        tracer.uninstall()
    assert all(o.ok for o in outcomes)
    for job in jobs:
        parts = tracer.job_self[job.index]
        assert len(parts) > 3
        assert all(v >= 0 for v in parts.values())
        assert math.isclose(sum(parts.values()), tracer.job_wall[job.index], rel_tol=1e-9)


def test_uninstall_restores_the_program(tmp_path):
    import repro.runs
    from repro.faas.platform import FaaSPlatform

    before = (FaaSPlatform.execute_epoch, repro.runs.save_run)
    tracer = LayerTracer()
    tracer.install()
    assert FaaSPlatform.execute_epoch is not before[0]
    tracer.uninstall()
    assert (FaaSPlatform.execute_epoch, repro.runs.save_run) == before


def test_percentile_counts_the_samples_beyond_it():
    values = [float(v) for v in range(40, 0, -1)]
    p75, beyond = worker.percentile(values, 75)
    assert 30.0 < p75 < 31.0 and beyond == 10
    assert worker.percentile(values, 50) == (pytest.approx(20.5), 20)
    assert worker.percentile([3.0] * 5, 90) == (pytest.approx(3.0), 0)


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-sha", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
