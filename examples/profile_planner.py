"""Hot-path profiling walkthrough: where does the planner's time go?

Installs the deterministic hot-path profiler (`repro.profiling`), runs
Algorithm 1 on a real Pareto ladder, and shows the three export
surfaces:

* the per-frame table (`repro tune WORKLOAD --profile PATH` writes a run's
  capture, `repro profile --validate PATH` renders the same table) with
  attributed counters — candidates evaluated per call
  site, and candidates/second per frame,
* the ``repro-profile/v1`` JSON capture (compare two of them later with
  ``repro profile --diff``, which writes a ``repro-compare/v2`` report),
* a collapsed-stack flamegraph (feed it to ``flamegraph.pl``,
  ``inferno-flamegraph`` or speedscope).

The profiler is observational: frames only measure *host* time and never
touch simulated clocks, so a profiled run is byte-identical to an
unprofiled one (see ``tests/test_determinism.py``).

Run:  python examples/profile_planner.py
"""

import tempfile
from pathlib import Path

from repro import workload
from repro.profiling import (
    Profiler,
    capture_payload,
    render_capture,
    set_profiler,
    to_collapsed,
    to_json,
)
from repro.runs import compare, exit_code, render_compare
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.plan import Objective, evaluate_plan
from repro.tuning.sha import SHASpec
from repro.tuning.static_planner import static_plan
from repro.workflow.runner import profile_workload


def main() -> None:
    w = workload("lr-higgs")
    ladder = sorted(profile_workload(w).pareto, key=lambda p: p.cost_usd)
    spec = SHASpec(n_trials=32, reduction_factor=2, epochs_per_stage=2)
    cheap = evaluate_plan(static_plan(ladder[0], spec), spec)

    # 1. Install a profiler, run the planner, render the frame table.
    profiler = Profiler()
    set_profiler(profiler)
    try:
        result = GreedyHeuristicPlanner().plan(
            ladder, spec, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=cheap.cost_usd * 1.3,
        )
    finally:
        set_profiler(None)

    payload = capture_payload(
        profiler, meta={"workload": "lr-higgs", "entry": "planner"}
    )
    print(render_capture(payload))
    print(f"\nplanner evaluated {result.stats.candidates_evaluated} "
          f"candidate plans in {result.stats.wall_time_s * 1e3:.1f} ms "
          f"(every one attributed to a frame above)")

    # 2. Persist the capture + flamegraph.
    out_dir = Path(tempfile.mkdtemp(prefix="repro-profile-"))
    capture_path = out_dir / "planner.profile.json"
    flame_path = out_dir / "planner.flame.txt"
    capture_path.write_text(to_json(payload))
    flame_path.write_text(to_collapsed(payload))
    print(f"\ncapture    : {capture_path}")
    print(f"flamegraph : {flame_path}  "
          f"(flamegraph.pl / inferno / speedscope)")

    # 3. Compare the capture with itself — the shape of a CI perf gate:
    #    every frame identical, verdict identical, exit code 0.
    report = compare("profile", payload, payload)
    print("\nself-compare (a real gate compares against a committed baseline):")
    print(render_compare(report))
    print(f"exit code: {exit_code(report)}")
    profiler.close()


if __name__ == "__main__":
    main()
