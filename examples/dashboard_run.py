"""Simulated-time metrics walkthrough: sample a run, replay its dashboard.

Wraps one training job in :class:`repro.Instruments` with the
``timeseries`` capture, which records resource trajectories on the *simulated* clock — in-flight
invocations against the account limit, warm-pool size, cold-start rate,
the scheduler's active (m, s) allocation with reallocation markers, and
cumulative spend — then shows the three surfaces built on the capture:

* the terminal dashboard (``repro dash --replay`` renders the same thing
  byte-for-byte, because rendering is a pure function of the document),
* the high-water marks of its series, which equal the platform's peak
  gauges that ``repro diagnose``'s breakdown reads,
* the EWMA/MAD anomaly detector that feeds ``repro diagnose``.

The sampler is observational: it never consumes randomness or branches
simulation logic, so a sampled run is byte-identical to an unsampled one
(see ``tests/test_determinism.py``).

Run:  python examples/dashboard_run.py
"""

import tempfile
from pathlib import Path

from repro import Instruments, workload
from repro.runs import compare, render_compare
from repro.timeseries import (
    detect_anomalies,
    load_capture,
    render_dashboard,
)
from repro.tuning.plan import Objective
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training


def main() -> None:
    w = workload("lr-higgs")
    profile = profile_workload(w)
    budget = training_envelope(w, profile).budget(2.5)

    # 1. Sample a training run; the capture is written on exit.
    out_dir = Path(tempfile.mkdtemp(prefix="repro-timeseries-"))
    capture_path = out_dir / "run.timeseries.json"
    with Instruments(
        {"workload": "lr-higgs", "seed": 0},
        paths={"timeseries": capture_path},
    ) as ins:
        run_training(
            w, method="ce-scaling", objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=0, profile=profile,
        )

    # 2. Replay it: the dashboard is a pure function of the document.
    payload = load_capture(capture_path.read_text())
    print(render_dashboard(payload, width=48))
    print(f"capture written to {capture_path}")
    print(f"replay it with: python -m repro dash --replay {capture_path}")

    # 3. High-water marks — the peaks of the `repro diagnose` breakdown.
    peaks = {entry["name"]: entry["high_water"] for entry in payload["series"]}
    print(f"\npeak concurrency {peaks['platform.inflight']:g}, "
          f"peak warm pool {peaks['platform.warm_pool']:g}")

    # 4. Anomaly scan (clean run -> usually empty) and a self-compare
    #    through the one compare engine (`repro timeseries diff`).
    anomalies = detect_anomalies(payload)
    if anomalies:
        for a in anomalies:
            print(f"[{a.severity}] {a.rule}: {a.message}")
    else:
        print("anomaly scan: clean (seed a storage-throttle fault plan "
              "via `repro diagnose --faults ... --timeseries ...` to trip it)")
    print()
    print(render_compare(compare("timeseries", payload, payload)))


if __name__ == "__main__":
    main()
