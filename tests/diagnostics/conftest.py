"""Diagnostics-test fixtures: one shared training run, diagnosed many ways."""

from __future__ import annotations

import json

import pytest

from repro.diagnostics import RunObservation
from repro.runs import Instruments
from repro.workflow.runner import run_training


def _observed(workload, profile, **kwargs):
    """Run one training job under the collectors live `repro diagnose`
    installs; returns the run and its observation, read back through the
    one builder."""
    with Instruments(
        {"method": kwargs.get("method", "ce-scaling"), "workload": workload.name,
         "seed": kwargs.get("seed", 0)},
        kinds={"telemetry", "events"},
    ) as ins:
        run = run_training(workload, profile=profile, **kwargs)
        r = run.result
        ins.set_run_summary({
            "jct_s": r.jct_s, "cost_usd": r.cost_usd, "converged": r.converged,
            "n_restarts": r.n_restarts, "comm_overhead_s": r.comm_overhead_s,
            "scheduling_overhead_s": r.scheduling_overhead_s,
            "objective": run.objective.value, "budget_usd": run.budget_usd,
            "qos_s": run.qos_s,
        })
    return run, RunObservation.from_capture(json.loads(ins.texts["telemetry"]), ins.log)


@pytest.fixture(scope="session")
def observe():
    """``observe(workload, profile, **run_training_kwargs) -> (run, obs)``."""
    return _observed


@pytest.fixture(scope="session")
def lr_observed(lr_higgs, lr_profile):
    return _observed(lr_higgs, lr_profile, budget_usd=2.0, seed=0)


@pytest.fixture(scope="session")
def lr_run(lr_observed):
    return lr_observed[0]


@pytest.fixture(scope="session")
def lr_obs(lr_observed) -> RunObservation:
    return lr_observed[1]
