"""Diagnostics walkthrough: from a finished run to ranked findings.

Runs one CE-scaling training job twice — once clean, once with a seeded
4x straggler on worker rank 3 — and diagnoses both:

* critical-path decomposition (where the JCT actually went),
* straggler detection (the seeded fault must be flagged),
* model-drift audit (measured epochs vs the Eq. (2)/(4) predictions),
* ex-post regret (were the allocation decisions hindsight-optimal?).

Each job runs under the collectors live ``repro diagnose`` installs (the
metrics registry and the event log), and its observation is read back
through the one builder a saved capture goes through.

Run:  python examples/diagnose_run.py
"""

import json

from repro import Instruments, Objective, RunObservation, diagnose, workload
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training


def observe(w, profile, budget: float, **kwargs) -> RunObservation:
    """Run one CE-scaling job and read back its telemetry and epoch timeline."""
    with Instruments(
        {"workload": w.name, "method": "ce-scaling", "seed": 0},
        kinds={"telemetry", "events"},
    ) as ins:
        run = run_training(
            w,
            method="ce-scaling",
            objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget,
            seed=0,
            profile=profile,
            **kwargs,
        )
        r = run.result
        ins.set_run_summary(
            {
                "jct_s": r.jct_s,
                "cost_usd": r.cost_usd,
                "n_restarts": r.n_restarts,
                "comm_overhead_s": r.comm_overhead_s,
                "scheduling_overhead_s": r.scheduling_overhead_s,
                "objective": Objective.MIN_JCT_GIVEN_BUDGET.value,
                "budget_usd": budget,
            }
        )
    return RunObservation.from_capture(json.loads(ins.texts["telemetry"]), ins.log)


def main() -> None:
    w = workload("lr-higgs")
    profile = profile_workload(w)
    budget = training_envelope(w, profile).budget(2.5)

    # --- a clean run: expect quiet diagnostics ---------------------------
    obs = observe(w, profile, budget)
    report = diagnose(obs, candidates=profile.candidates)
    print(report.render())

    # --- the same job with a seeded fault: rank 3 computes at 4x ---------
    faulty_obs = observe(w, profile, budget, straggler_factors={3: 4.0})
    faulty_report = diagnose(faulty_obs, candidates=profile.candidates)

    print("\n--- with a seeded 4x straggler on rank 3 ---\n")
    stretch = faulty_obs.jct_s - obs.jct_s
    print(
        f"JCT {obs.jct_s:.2f} s -> {faulty_obs.jct_s:.2f} s "
        f"(+{stretch:.2f} s: the BSP barrier waits for the laggard)"
    )
    for finding in faulty_report.findings:
        print(f"  [{finding.severity}] {finding.kind}: {finding.message}")

    flagged = faulty_report.stragglers.affected_ranks
    print(f"\nstraggler ranks flagged: {flagged}")
    worst = faulty_report.stragglers.worst
    if worst is not None:
        print(
            f"worst observation: epoch {worst.epoch}, rank {worst.rank}, "
            f"{worst.slowdown:.2f}x the gang median ({worst.deviation_sigma:.0f}σ)"
        )
    print("\nsame analysis from a saved capture: "
          "python -m repro diagnose out.json --events out.events.jsonl")


if __name__ == "__main__":
    main()
