"""Observability walkthrough: metrics, live traces, and the breakdown.

Wraps one CE-scaling training job in :class:`repro.Instruments`, then
shows the three export surfaces the telemetry layer offers:

* the diagnosis of the capture, read back from the telemetry JSON and the
  event log: critical path plus the cost, activity and peaks breakdown
  (`repro diagnose` renders the same thing),
* Prometheus text exposition (scrape-format metrics),
* a Chrome trace-event timeline (load it in Perfetto).

Run:  python examples/telemetry_capture.py
"""

import json
import tempfile
from pathlib import Path

from repro import Instruments, Objective, RunObservation, diagnose, workload
from repro.slo import EventLog
from repro.telemetry.exporters import to_prometheus_text
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training


def main() -> None:
    w = workload("lr-higgs")
    profile = profile_workload(w)
    budget = training_envelope(w, profile).budget(2.5)

    out_dir = Path(tempfile.mkdtemp(prefix="repro-telemetry-"))
    metrics_path = out_dir / "run.json"
    trace_path = out_dir / "run.trace.json"
    events_path = out_dir / "run.events.jsonl"

    # Everything constructed inside the context records onto its registry,
    # tracer and event log; on exit the captures are written and the
    # process-global no-op collectors are restored.
    with Instruments(
        {"command": "train", "workload": "lr-higgs"},
        paths={"telemetry": metrics_path, "trace": trace_path, "events": events_path},
    ) as ins:
        run = run_training(
            w,
            method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget,
            seed=0,
            profile=profile,
        )
        r = run.result
        ins.set_run_summary(
            {
                "jct_s": r.jct_s,
                "cost_usd": r.cost_usd,
                "n_restarts": r.n_restarts,
                "comm_overhead_s": r.comm_overhead_s,
                "scheduling_overhead_s": r.scheduling_overhead_s,
            }
        )

    # 1. Where the time and the money went, read back from the capture:
    #    the totals from the telemetry JSON, the epochs from the event log.
    obs = RunObservation.from_capture(
        json.loads(metrics_path.read_text()),
        EventLog.from_jsonl(events_path.read_text()),
    )
    print(diagnose(obs, candidates=profile.candidates).render())

    # 2. Prometheus exposition — a few lines of what a scraper would see.
    print("\nprometheus sample:")
    exposition = to_prometheus_text(ins.registry.snapshot())
    for line in exposition.splitlines():
        if "cold_start" in line or "billed_usd" in line:
            print(f"  {line}")

    # 3. The Chrome trace — per-phase spans on per-group tracks.
    chrome = json.loads(trace_path.read_text())
    spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    tracks = sorted({e["args"]["name"] for e in chrome["traceEvents"]
                     if e["ph"] == "M"})
    print(f"\ntrace: {len(spans)} spans on {len(tracks)} tracks -> {trace_path}")
    print(f"tracks: {', '.join(tracks)}")
    print(f"telemetry JSON ({metrics_path.stat().st_size} bytes) -> "
          f"{metrics_path}")
    print("inspect later with: "
          f"python -m repro diagnose {metrics_path} --events {events_path}")


if __name__ == "__main__":
    main()
