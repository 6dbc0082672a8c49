"""Smoke tests for the package's public API surface."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.common", "repro.config", "repro.faas",
            "repro.ml", "repro.analytical", "repro.tuning", "repro.training",
            "repro.baselines", "repro.workflow", "repro.experiments",
            "repro.telemetry", "repro.slo", "repro.faults", "repro.profiling",
            "repro.kernel",
        ],
    )
    def test_subpackages_importable(self, module):
        importlib.import_module(module)

    def test_headline_objects_exposed(self):
        assert repro.Objective.MIN_JCT_GIVEN_BUDGET is not None
        assert callable(repro.run_training)
        assert callable(repro.run_tuning)
        assert callable(repro.workload)
        spec = repro.SHASpec(16, 2, 2)
        assert spec.n_stages == 4

    def test_docstrings_everywhere(self):
        """Every public module and exported class/function is documented."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_import_loads_no_scipy(self):
        """``import repro`` and the CLI load no scipy: only BOHB's density
        model needs it, and imports it where it runs."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, repro, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
