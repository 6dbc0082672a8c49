"""Smoke tests: every shipped example runs to completion in-process."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "hyperparameter_tuning",
        "storage_selection",
        "adaptive_training_trace",
        "bohb_tuning",
        "full_workflow",
        "telemetry_capture",
        "diagnose_run",
        "slo_guard",
        "chaos_run",
        "profile_planner",
        "dashboard_run",
    ],
)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real walkthrough, not a stub
