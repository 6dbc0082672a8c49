"""The interleaved on/off overhead probe: its statistics and its verdict."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def probe():
    """benchmarks/overhead.py loaded by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "overhead_probe", REPO_ROOT / "benchmarks" / "overhead.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_median_iqr(probe):
    assert probe.median_iqr([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0)
    assert probe.median_iqr([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.5)
    assert probe.median_iqr([7.0]) == (7.0, 0.0)


def test_rows_keep_their_bounds(probe):
    assert [row.name for row in probe.ROWS] == [
        "slo-guard", "profiler", "timeseries", "save-run", "journal",
        "flow-lint",
    ]
    for row in probe.ROWS[:-1]:
        assert row.off is not None and row.bound == 1.05
    flow = probe.ROWS[-1]
    assert flow.off is None and flow.bound == 10.0


def test_ratio_over_bound_exits_one(probe, capsys):
    slow = probe.Row("slow", on=lambda _: time.sleep(0.02),
                     off=lambda _: time.sleep(0.001))
    assert probe.main(rows=[slow], pairs=2) == 1
    assert "OVER BOUND: slow" in capsys.readouterr().out


def test_budget_rows_judge_seconds(probe, capsys):
    idle = probe.Row("idle", on=lambda _: None, bound=10.0)
    assert probe.main(rows=[idle], pairs=3) == 0
    assert "OVER BOUND" not in capsys.readouterr().out
    assert probe.main(rows=[probe.Row("idle", on=lambda _: None, bound=0.0)],
                      pairs=3) == 1
