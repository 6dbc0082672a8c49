"""Golden pins on Algorithm 1's results over the benchmark's tuning traffic.

Every catalogue model is planned under both objectives at the SHA shapes
of the ``tune-sha`` benchmark workload (128-1024 trials, eta 2 or 3, one
epoch per stage), with constraints that are multiples of the tuning
envelope inside that workload's ranges: budgets of 1.3-1.9x the cheapest
uniform spend, deadlines of 1.5-3.0x the fastest uniform JCT. One
infeasible budget and one WO-pa ladder (the full allocation grid, not the
Pareto boundary) complete the set.

Each case pins a sha256 over the chosen plan's allocations, the ``repr``
of every predicted and static-plan float, ``feasible`` and the planner's
``candidates_evaluated`` and ``greedy_iterations``. A change to how the
planner searches must leave every digest as it is.
"""

import hashlib

import pytest

from repro.analytical.profiler import ParetoProfiler
from repro.ml.models import workload
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.plan import Objective
from repro.tuning.sha import SHASpec
from repro.workflow.job import tuning_envelope

# (model, (trials, eta) for min-jct, (trials, eta) for min-cost).
SHAPES = (
    ("lr-higgs", (243, 3), (729, 3)),
    ("svm-higgs", (162, 3), (128, 2)),
    ("lr-yfcc", (162, 3), (512, 2)),
    ("svm-yfcc", (243, 3), (1024, 2)),
    ("mobilenet-cifar10", (128, 2), (243, 3)),
    ("resnet50-cifar10", (256, 2), (162, 3)),
    ("bert-imdb", (1024, 2), (243, 3)),
)

CASES = [
    (model, Objective.MIN_JCT_GIVEN_BUDGET, jct_shape, 1.3 + 0.1 * i, True)
    for i, (model, jct_shape, _) in enumerate(SHAPES)
] + [
    (model, Objective.MIN_COST_GIVEN_QOS, cost_shape, 1.5 + 0.25 * i, True)
    for i, (model, _, cost_shape) in enumerate(SHAPES)
] + [
    # No plan spends less than the cheapest uniform plan: infeasible.
    ("lr-higgs", Objective.MIN_JCT_GIVEN_BUDGET, (243, 3), 0.5, True),
    # WO-pa: every grid point is a candidate.
    ("lr-higgs", Objective.MIN_JCT_GIVEN_BUDGET, (16, 2), 2.0, False),
]

GOLDEN = {
    "lr-higgs-min_jct-243x3-1.30-pareto": "f6338101cc71a69a801db2bd4187f6e027b85d96aa01cf08f17bc56a55bf15a5",
    "svm-higgs-min_jct-162x3-1.40-pareto": "e66dc6a67e6f92565b8ddcf1c57df35a269d7a09d9b246d0dcec0556b03497d3",
    "lr-yfcc-min_jct-162x3-1.50-pareto": "82dc06b0fc9c9a39926fc7c8e25ea58f79635e8c08a26aedb0728161c7b613a9",
    "svm-yfcc-min_jct-243x3-1.60-pareto": "869292ddb31926cd02c1b5275dfee6b1c4b64a9c9cf173e351ee3a0ba6c85214",
    "mobilenet-cifar10-min_jct-128x2-1.70-pareto": "c7fd0b067604506f30c1691c91d0a9ba806c7c65f04b9413ae4ade5aa4eb90ef",
    "resnet50-cifar10-min_jct-256x2-1.80-pareto": "c863f7470f8615317abc0a8965937cbb1dac626eb6b79f04a42f4a6d284db025",
    "bert-imdb-min_jct-1024x2-1.90-pareto": "f47c210431581c68fbeedc2f597e6a5cc3890f851b48c46e8a3c967f4b882403",
    "lr-higgs-min_cost-729x3-1.50-pareto": "b38a7d323b96b87faeabcab99743205d78415b4a1811cf2806d542b1b5f345c7",
    "svm-higgs-min_cost-128x2-1.75-pareto": "d8d877aef2f8d5b9e1937cb0d243e904d55f124901a700d10dc8b4c7d6738a03",
    "lr-yfcc-min_cost-512x2-2.00-pareto": "742f04e7de0bd6086db1d086adcb4825c0c7e2c7f2afbe54648b385829eb67ca",
    "svm-yfcc-min_cost-1024x2-2.25-pareto": "fa60f5d93c2a2923889ef125eb38ce59759915875a1ff1ffddd44621111e3d47",
    "mobilenet-cifar10-min_cost-243x3-2.50-pareto": "749a88c82bd539355f4f80ffdde4416098c67c747fb410d667e8405c292b65c3",
    "resnet50-cifar10-min_cost-162x3-2.75-pareto": "aa0eaafbab763e6ab6cfc699320f3b213fe900a126b3b321e99209591270eeea",
    "bert-imdb-min_cost-243x3-3.00-pareto": "77af80c0dec8eeccd71379034a576c5f8661a857f601105511e73750461c8c72",
    "lr-higgs-min_jct-243x3-0.50-pareto": "e1a224a067ad72c598fd50fe26ef23ea1e435bd3cc0d2829903faaf250f24e9e",
    "lr-higgs-min_jct-16x2-2.00-wo-pa": "1dc55853583a724c624afec5cdbc8e2e799cbb312e824085fcbc8d8c51356523",
}


def _case_id(case):
    model, objective, (trials, eta), multiple, use_pareto = case
    ladder = "pareto" if use_pareto else "wo-pa"
    return f"{model}-{objective.value}-{trials}x{eta}-{multiple:.2f}-{ladder}"


@pytest.fixture(scope="module")
def profiles():
    cache = {}

    def get(model, use_pareto):
        if (model, use_pareto) not in cache:
            cache[model, use_pareto] = ParetoProfiler(use_pareto=use_pareto).profile(
                workload(model)
            )
        return cache[model, use_pareto]

    return get


def _digest(res) -> str:
    fields = [
        *(p.allocation.describe() for p in res.plan.stages),
        *(
            repr(v)
            for ev in (res.evaluation, res.static_evaluation)
            for v in (ev.jct_s, ev.cost_usd, *ev.stage_jct_s, *ev.stage_cost_usd)
        ),
        repr(res.feasible),
        repr(res.stats.candidates_evaluated),
        repr(res.stats.greedy_iterations),
    ]
    return hashlib.sha256("\n".join(fields).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_plan_digest_pinned(profiles, case):
    model, objective, (trials, eta), multiple, use_pareto = case
    profile = profiles(model, use_pareto)
    spec = SHASpec(trials, eta, 1)
    env = tuning_envelope(profile, spec)
    if objective is Objective.MIN_JCT_GIVEN_BUDGET:
        kwargs = {"budget_usd": env.budget(multiple)}
    else:
        kwargs = {"qos_s": env.qos(multiple)}
    res = GreedyHeuristicPlanner().plan(profile.candidates, spec, objective, **kwargs)
    assert res.feasible is (multiple >= 1.0)
    assert _digest(res) == GOLDEN[_case_id(case)]
