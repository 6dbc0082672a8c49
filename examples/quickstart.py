"""Quickstart: profile a workload and train it with CE-scaling under a budget.

Run:  python examples/quickstart.py
"""

from repro import Objective, run_training, workload
from repro.common.units import format_duration, format_usd
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload


def main() -> None:
    # 1. Pick a workload from the paper's Table IV.
    w = workload("mobilenet-cifar10")
    print(f"workload: {w.name}  model={w.model_mb:.1f} MB  "
          f"dataset={w.dataset_mb:.0f} MB  target loss={w.target_loss}")

    # 2. Profile the allocation space: the Pareto profiler evaluates the
    #    analytical time/cost models (Eq. 2-5) over (n, memory, storage)
    #    and keeps only the Pareto-optimal points.
    profile = profile_workload(w)
    print(f"\nprofiled {profile.feasible.sum()} feasible allocations "
          f"-> {len(profile.pareto)} on the Pareto boundary "
          f"({profile.profile_time_s * 1e3:.1f} ms)")
    fastest, cheapest = profile.fastest(), profile.cheapest()
    print(f"  fastest : {fastest.allocation.describe():24s} "
          f"{format_duration(fastest.time_s)}/epoch  "
          f"{format_usd(fastest.cost_usd)}/epoch")
    print(f"  cheapest: {cheapest.allocation.describe():24s} "
          f"{format_duration(cheapest.time_s)}/epoch  "
          f"{format_usd(cheapest.cost_usd)}/epoch")

    # 3. Derive a budget (2.5x the cheapest possible spend) and train with
    #    CE-scaling: offline warm start, online loss-curve refitting, and
    #    allocation switches hidden by delayed restart.
    budget = training_envelope(w, profile).budget(2.5)
    print(f"\nbudget: {format_usd(budget)}")
    run = run_training(
        w,
        method="ce-scaling",
        objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=budget,
        seed=0,
        profile=profile,
    )
    r = run.result
    print(f"\nCE-scaling result:")
    print(f"  converged : {r.converged} (final loss {r.final_loss:.3f})")
    print(f"  JCT       : {format_duration(r.jct_s)}")
    print(f"  cost      : {format_usd(r.cost_usd)} (within budget: "
          f"{r.cost_usd <= budget})")
    print(f"  epochs    : {len(r.epochs)}, restarts: {r.n_restarts}, "
          f"scheduling overhead: {format_duration(r.scheduling_overhead_s)}")
    print(f"  comm time : {format_duration(r.comm_overhead_s)}  "
          f"storage cost: {format_usd(r.storage_cost_usd)}")


if __name__ == "__main__":
    main()
