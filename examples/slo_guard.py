"""QoS guard walkthrough: burn-rate accounting, alerts, and event replay.

Runs one CE-scaling training job inside :class:`repro.Instruments` with an
SLO spec that holds it to a deadline it cannot make, then shows the three
guard surfaces:

* the alert stream — the ``deadline-projected-miss`` alert fires many
  epochs before the clock actually crosses the deadline, because the
  guard projects completion from the online predictor's horizon,
* the SLO report (`repro slo` renders the same table),
* deterministic replay — re-evaluating the structured event log offline
  reaches the same objective states as the live guard did.

Run:  python examples/slo_guard.py
"""

import tempfile
from pathlib import Path

from repro import (
    Instruments,
    Objective,
    SLOSpec,
    evaluate_guard,
    replay_events,
    workload,
)
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training


def main() -> None:
    w = workload("lr-higgs")
    profile = profile_workload(w)
    budget = training_envelope(w, profile).budget(2.5)

    # lr-higgs needs ~84 simulated seconds at this budget; a 55 s deadline
    # is a promise the run cannot keep. The interesting part is *when* the
    # guard notices: from the projection, not from the miss itself.
    spec = SLOSpec(name="demo", deadline_s=55.0, budget_usd=5.0)

    out_dir = Path(tempfile.mkdtemp(prefix="repro-slo-"))
    events_path = out_dir / "events.jsonl"

    # Everything the runner, executor and scheduler emit while the context
    # is live flows through the event bus into the guard and its log.
    with Instruments(
        {"command": "train", "workload": "lr-higgs"},
        paths={"events": events_path},
        slo=spec,
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
    guard = ins.guard
    print(
        f"run finished: jct {r.jct_s:.1f} s vs deadline {spec.deadline_s:.0f} s, "
        f"cost ${r.cost_usd:.2f} vs budget ${spec.budget_usd:.2f}\n"
    )

    # 1. The alert stream — leading indicators, stamped in simulated time.
    print("alerts:")
    for alert in guard.alerts:
        end = (
            f"resolved t={alert.resolved_t_s:.1f}s"
            if alert.resolved_t_s is not None
            else "never resolved"
        )
        print(
            f"  [{alert.severity}] {alert.rule}: fired epoch "
            f"{alert.fired_epoch} (t={alert.fired_t_s:.1f}s), {end}"
        )

    # 2. The SLO report — `repro slo` renders the same thing.
    report = evaluate_guard(guard, meta=ins.meta)
    print()
    print(report.render())

    # 3. Replay: the event log alone reproduces the objective states.
    replayed = replay_events(spec, events_path.read_text())
    match = (
        replayed.to_payload()["objectives"] == report.to_payload()["objectives"]
    )
    print(f"\nevent log: {len(ins.log)} events -> {events_path}")
    print(f"replay reaches the same objective states: {match}")
    print(
        "evaluate a capture later with: python -m repro slo "
        f"--spec <spec.json> --capture {events_path}"
    )


if __name__ == "__main__":
    main()
