"""A deep dive into Algorithm 2: epoch-by-epoch scheduler decisions.

Traces one CE-scaling training run: the offline warm start, the online
loss-curve predictions, the δ-gated allocation switches, and the delayed
restarts that hide their overhead.

Run:  python examples/adaptive_training_trace.py
"""

from repro import AdaptiveScheduler, Objective, workload
from repro.analytical.timemodel import epoch_time
from repro.common.units import format_duration, format_usd
from repro.training.delayed_restart import DelayedRestartPlanner
from repro.training.executor import SurrogateLossProvider
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload


def main() -> None:
    w = workload("resnet50-cifar10")
    profile = profile_workload(w)
    budget = training_envelope(w, profile).budget(2.5)
    scheduler = AdaptiveScheduler(
        workload=w,
        candidates=profile.pareto,
        objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=budget,
        delta=0.1,
        seed=1,
    )
    provider = SurrogateLossProvider(w, seed=1)
    restarts = DelayedRestartPlanner()

    decision = scheduler.initial_decision()
    print(f"budget {format_usd(budget)}; offline prediction: "
          f"{decision.predicted_total_epochs:.0f} epochs")
    print(f"initial allocation: {decision.point.allocation.describe()}\n")
    print(f"{'ep':>3s} {'loss':>8s} {'pred':>6s} {'allocation':26s} "
          f"{'epoch time':>12s} {'switch'}")

    point = decision.point
    for epoch in range(1, 200):
        t = epoch_time(w, point.allocation)
        loss = provider.epoch_loss()
        decision = scheduler.on_epoch_end(loss, point.cost_usd, t.total_s)
        note = ""
        if decision.restart:
            plan = restarts.plan_restart(w, decision.point.allocation, t.total_s)
            note = (f"-> {decision.point.allocation.describe()} "
                    f"(restart overhead hidden: "
                    f"{format_duration(plan.hidden_overhead_s)}, visible: "
                    f"{format_duration(plan.visible_overhead_s)})")
        print(f"{epoch:3d} {loss:8.3f} {decision.predicted_total_epochs:6.1f} "
              f"{point.allocation.describe():26s} "
              f"{format_duration(t.total_s):>12s} {note}")
        point = decision.point
        if loss <= w.target_loss:
            print(f"\nconverged after {epoch} epochs "
                  f"({scheduler.n_searches} scheduler searches, "
                  f"{format_usd(scheduler.spent_usd)} spent)")
            break


if __name__ == "__main__":
    main()
