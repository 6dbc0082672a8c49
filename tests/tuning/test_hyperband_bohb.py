"""Tests for the HyperBand brackets and BOHB extension."""

import pytest

from repro.common.errors import ValidationError
from repro.ml.models import workload
from repro.tuning.bohb import BOHBEngine, BOHBRunner, TPESampler
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.hyperband import BracketSpec, HyperBandSpec
from repro.tuning.plan import Objective, evaluate_plan
from repro.tuning.executor import TuningExecutor
from repro.tuning.sha import SHAEngine
from tests.tuning.test_sha import run_to_completion


class TestBracketSpec:
    def test_stage_shape(self):
        b = BracketSpec(n_trials=16, reduction_factor=2, initial_epochs=1)
        assert b.n_stages == 4
        assert [b.trials_in_stage(i) for i in range(4)] == [16, 8, 4, 2]
        assert [b.epochs_in_stage(i) for i in range(4)] == [1, 2, 4, 8]

    def test_max_rungs_cap(self):
        b = BracketSpec(n_trials=16, reduction_factor=2, initial_epochs=4,
                        max_rungs=2)
        assert b.n_stages == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            BracketSpec(n_trials=1, reduction_factor=2, initial_epochs=1)
        with pytest.raises(ValidationError):
            BracketSpec(n_trials=8, reduction_factor=1, initial_epochs=1)

    def test_total_trial_epochs(self):
        b = BracketSpec(n_trials=4, reduction_factor=2, initial_epochs=3)
        # stages: 4 trials x 3 epochs + 2 trials x 6 epochs
        assert b.total_trial_epochs() == 4 * 3 + 2 * 6


class TestHyperBandSpec:
    def test_bracket_count(self):
        hb = HyperBandSpec(max_epochs_per_trial=27, reduction_factor=3)
        assert hb.s_max == 3
        assert len(hb.brackets()) == 4

    def test_final_rung_never_exceeds_r(self):
        hb = HyperBandSpec(max_epochs_per_trial=16, reduction_factor=2)
        for b in hb.brackets():
            last = b.epochs_in_stage(b.n_stages - 1)
            assert last <= hb.max_epochs_per_trial

    def test_most_exploratory_bracket_first(self):
        hb = HyperBandSpec(max_epochs_per_trial=16, reduction_factor=2)
        brackets = hb.brackets()
        assert brackets[0].n_trials >= brackets[-1].n_trials
        assert brackets[0].initial_epochs <= brackets[-1].initial_epochs

    def test_validation(self):
        with pytest.raises(ValidationError):
            HyperBandSpec(max_epochs_per_trial=0)


class TestPlannerOnBrackets:
    def test_greedy_planner_accepts_bracket(self, lr_profile):
        """The paper's claim: CE-scaling's partitioning applies to
        HyperBand-family tuners, not only plain SHA."""
        bracket = BracketSpec(n_trials=32, reduction_factor=2, initial_epochs=1)
        res = GreedyHeuristicPlanner().plan(
            lr_profile.pareto, bracket, Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=1e6,
        )
        assert len(res.plan.stages) == bracket.n_stages
        ev = evaluate_plan(res.plan, bracket)
        assert ev.jct_s > 0

    def test_executor_accepts_bracket(self, lr_higgs, lr_profile):
        bracket = BracketSpec(n_trials=8, reduction_factor=2, initial_epochs=1)
        from repro.tuning.plan import PartitionPlan

        plan = PartitionPlan.uniform(lr_profile.pareto[0], bracket.n_stages)
        result = TuningExecutor(lr_higgs, bracket, seed=0).run(plan)
        assert result.winner is not None


class TestTPESampler:
    def test_prior_until_enough_observations(self):
        s = TPESampler(seed=0, min_observations=5)
        lr, mom = s.sample()
        assert 10**-5 <= lr <= 10**-0.5
        assert 0.0 <= mom <= 0.99

    def test_deterministic(self):
        assert TPESampler(seed=1).sample() == TPESampler(seed=1).sample()

    def test_rejects_bad_lr(self):
        with pytest.raises(ValidationError):
            TPESampler().observe(0.0, 0.5, 1.0)

    def test_concentrates_near_good_configs(self):
        """After observing that configs near (1e-2, 0.9) score best, samples
        move toward that region."""
        import numpy as np

        s = TPESampler(seed=0, min_observations=8)
        rng = np.random.default_rng(0)
        for _ in range(60):
            lr = float(10 ** rng.uniform(-5, -0.5))
            mom = float(rng.uniform(0, 0.99))
            score = -abs(np.log10(lr) + 2) - abs(mom - 0.9)
            s.observe(lr, mom, score)
        samples = [s.sample() for _ in range(30)]
        mean_loglr = np.mean([np.log10(lr) for lr, _ in samples])
        mean_mom = np.mean([m for _, m in samples])
        assert abs(mean_loglr + 2) < 1.2
        assert abs(mean_mom - 0.9) < 0.25


class TestBOHB:
    def test_engine_reports_scores(self, mobilenet):
        sampler = TPESampler(seed=0)
        bracket = BracketSpec(n_trials=8, reduction_factor=2, initial_epochs=1)
        engine = BOHBEngine(bracket, mobilenet, sampler, seed=0)
        run_to_completion(engine)
        engine.report_to_sampler()
        assert sampler.n_observations == 8

    def test_runner_end_to_end(self, mobilenet, mobilenet_profile):
        hb = HyperBandSpec(max_epochs_per_trial=8, reduction_factor=2)
        res = BOHBRunner(
            mobilenet, hb, mobilenet_profile.pareto, budget_usd=30.0, seed=0
        ).run()
        assert res.jct_s > 0
        assert res.best_trial is not None
        assert len(res.bracket_results) == len(hb.brackets())

    def test_runner_deterministic(self, mobilenet, mobilenet_profile):
        hb = HyperBandSpec(max_epochs_per_trial=8, reduction_factor=2)
        a = BOHBRunner(mobilenet, hb, mobilenet_profile.pareto, 30.0, seed=2).run()
        b = BOHBRunner(mobilenet, hb, mobilenet_profile.pareto, 30.0, seed=2).run()
        assert a.jct_s == b.jct_s
        assert a.best_trial.index == b.best_trial.index

    def test_bohb_finds_good_config(self, mobilenet, mobilenet_profile):
        hb = HyperBandSpec(max_epochs_per_trial=16, reduction_factor=2)
        res = BOHBRunner(
            mobilenet, hb, mobilenet_profile.pareto, budget_usd=50.0, seed=0
        ).run()
        assert res.best_trial.quality > 0.5
