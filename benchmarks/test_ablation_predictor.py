"""Ablation: online-predictor design choices (DESIGN.md §6).

Compares the shipped predictor (grid-floor inverse power law with the
workload prior, median-clamped across families) against single raw curve
families, at 30% training progress — where the scheduler's decisions hurt
the most.
"""

import numpy as np

from repro.ml.curves import LossCurveSampler
from repro.ml.models import workload
from repro.training.online_predictor import OnlinePredictor
from repro.workflow.metrics import ComparisonTable

VARIANTS = {
    "full (prior+grid+median)": dict(prior=True, families=None),
    "ipl-grid only, no prior": dict(prior=False, families=("ipl_grid",)),
    "variable-projection ipl only": dict(prior=False, families=("inverse_power_law",)),
    "exponential only": dict(prior=False, families=("exponential",)),
    "hyperbolic only": dict(prior=False, families=("hyperbolic",)),
}

WORKLOADS = ("mobilenet-cifar10", "resnet50-cifar10")


def _errors(w, variant, n_seeds=8, progress=0.3):
    errs = []
    for seed in range(n_seeds):
        true = LossCurveSampler(
            w.curve_params(), seed=seed, run_label=("train", w.name),
            anchor_target=w.target_loss,
        ).epochs_to_target(w.target_loss)
        sampler = LossCurveSampler(
            w.curve_params(), seed=seed, run_label=("train", w.name),
            anchor_target=w.target_loss,
        )
        kw = {}
        if variant["prior"]:
            kw["prior"] = w.curve_params()
        if variant["families"]:
            kw["families"] = variant["families"]
        predictor = OnlinePredictor(w.target_loss, **kw)
        for _ in range(max(4, int(true * progress))):
            predictor.observe(sampler.next_loss())
        try:
            errs.append(abs(predictor.predict_total_epochs() - true) / true)
        except Exception:
            errs.append(2.0)  # failed fit counted as a 200% miss
    return float(np.mean(errs))


def test_predictor_family_ablation(benchmark):
    table = ComparisonTable(
        title="Mean prediction error at 30% progress",
        columns=["variant"] + list(WORKLOADS),
    )

    def run_all():
        return {
            name: [_errors(workload(w), variant) for w in WORKLOADS]
            for name, variant in VARIANTS.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, errs in results.items():
        table.add_row(name, *[e * 100 for e in errs])
    print("\n" + table.render())
    full = np.mean(results["full (prior+grid+median)"])
    for name, errs in results.items():
        if name != "full (prior+grid+median)":
            # The shipped design must not lose to any single raw family.
            assert full <= np.mean(errs) * 1.1
