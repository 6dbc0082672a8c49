"""Tests for the online and offline epoch predictors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeWarning, curve_fit

from repro.common.errors import PredictionError
from repro.ml.curves import (
    CurveParams,
    LossCurveSampler,
    exponential_decay,
    hyperbolic,
    inverse_power_law,
)
from repro.ml.models import workload
from repro.training.offline_predictor import OfflinePredictor
from repro.training.online_predictor import (
    OnlinePredictor,
    _fit_ipl_grid,
    _fit_rate_families,
)

RATE_FAMILIES = ["inverse_power_law", "exponential", "hyperbolic"]


def _clean_curve(n, l_inf=0.1, a=2.0, alpha=0.8):
    e = np.arange(1, n + 1, dtype=float)
    return e, l_inf + a * (e + 1) ** (-alpha)


class TestOnlinePredictor:
    def test_needs_min_points(self):
        p = OnlinePredictor(target_loss=0.5)
        p.observe(1.0)
        with pytest.raises(PredictionError):
            p.predict_total_epochs()

    def test_rejects_bad_target(self):
        with pytest.raises(PredictionError):
            OnlinePredictor(target_loss=0.0)

    def test_rejects_unknown_family(self):
        with pytest.raises(PredictionError):
            OnlinePredictor(target_loss=0.5, families=("cubic-spline",))

    def test_exact_on_clean_ipl(self):
        params = CurveParams(init_loss=2.1, floor_loss=0.1, alpha=0.8)
        target = 0.3
        true = params.epochs_to(target)
        p = OnlinePredictor(target_loss=target)
        for e in range(1, int(true * 0.5)):
            p.observe(params.loss_at(e))
        assert p.predict_total_epochs() == pytest.approx(true, rel=0.15)

    def test_already_converged_returns_crossing_epoch(self):
        p = OnlinePredictor(target_loss=0.5)
        for loss in (0.9, 0.7, 0.4, 0.3, 0.2):
            p.observe(loss)
        assert p.predict_total_epochs() == 3.0

    def test_repeated_family_fits_once(self):
        params = CurveParams(init_loss=2.1, floor_loss=0.1, alpha=0.8)
        single = OnlinePredictor(0.3, families=("hyperbolic", "exponential"))
        repeated = OnlinePredictor(0.3, families=("hyperbolic", "exponential", "hyperbolic"))
        for e in range(1, 12):
            single.observe(params.loss_at(e))
            repeated.observe(params.loss_at(e))
        assert repeated.predict_total_epochs() == single.predict_total_epochs()
        assert repeated.last_fit == single.last_fit

    def test_prediction_never_below_observations(self):
        params = CurveParams(init_loss=2.1, floor_loss=0.5, alpha=0.8)
        p = OnlinePredictor(target_loss=0.51)
        for e in range(1, 30):
            p.observe(params.loss_at(e))
        assert p.predict_total_epochs() >= p.n_observations

    def test_prior_improves_early_accuracy(self):
        """With four noisy points, the prior-informed fit must be closer to
        the truth than the prior-free fit, on average."""
        w = workload("mobilenet-cifar10")
        prior_errs, free_errs = [], []
        for seed in range(10):
            sampler = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            )
            true = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            ).epochs_to_target(w.target_loss)
            losses = [sampler.next_loss() for _ in range(6)]
            for errs, prior in ((prior_errs, w.curve_params()), (free_errs, None)):
                p = OnlinePredictor(w.target_loss, prior=prior)
                for loss in losses:
                    p.observe(loss)
                try:
                    errs.append(abs(p.predict_total_epochs() - true) / true)
                except PredictionError:
                    errs.append(5.0)
        assert np.mean(prior_errs) < np.mean(free_errs)

    def test_error_decreases_with_observations(self):
        """Fig. 4b's shape: late-run predictions beat early-run predictions."""
        w = workload("resnet50-cifar10")
        early, late = [], []
        for seed in range(8):
            true = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            ).epochs_to_target(w.target_loss)
            sampler = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            )
            p = OnlinePredictor(w.target_loss, prior=w.curve_params())
            for e in range(1, int(true * 0.9)):
                p.observe(sampler.next_loss())
                if e == max(4, int(true * 0.2)):
                    early.append(abs(p.predict_total_epochs() - true) / true)
            late.append(abs(p.predict_total_epochs() - true) / true)
        assert np.mean(late) < np.mean(early)

    def test_grid_fit_recovers_parameters(self):
        e, y = _clean_curve(40, l_inf=0.2, a=1.5, alpha=0.6)
        fit = _fit_ipl_grid(e, y)
        floor, a, alpha = fit.params
        assert alpha == pytest.approx(0.6, rel=0.15)
        assert floor == pytest.approx(0.2, abs=0.08)


def _reference_ipl_grid(e, y, prior=None, prior_weight=3.0):
    """The grid-floor fit as one ``np.polyfit`` per floor, for comparison."""
    y_min = float(y.min())
    if y_min <= 0:
        return None
    best, best_score = None, float("inf")
    log_e = np.log(e + 1.0)
    y_var = float(np.var(y)) + 1e-12
    n = len(y)
    for frac in np.linspace(0.0, 0.98, 25):
        floor = frac * y_min
        slope, intercept = np.polyfit(log_e, np.log(y - floor), 1)
        alpha = -slope
        if alpha <= 0:
            continue
        a = float(np.exp(intercept))
        resid = y - inverse_power_law(e, floor, a, alpha)
        score = float(resid @ resid) / (n * y_var)
        if prior is not None:
            floor0, a0, alpha0 = prior
            penalty = np.log(alpha / max(alpha0, 1e-12)) ** 2 + (
                (floor - floor0) / max(a0, 1e-12)
            ) ** 2
            score += (prior_weight / n) * float(penalty)
        if score < best_score:
            best_score, best = score, (floor, a, alpha)
    return best


def _curve_fit_sse(family, e, y):
    """SSE of a bounded ``curve_fit`` from a fixed start, or None if it fails."""
    y_min, y_max = float(y.min()), float(y.max())
    span = max(y_max - y_min, 1e-9)
    if family == "inverse_power_law":
        fn, p0 = inverse_power_law, [max(y_min * 0.8, 1e-9), span, 0.5]
        bounds = ([0.0, 1e-12, 1e-3], [y_min, np.inf, 10.0])
    elif family == "exponential":
        fn, p0 = exponential_decay, [max(y_min * 0.8, 1e-9), span, 0.1]
        bounds = ([0.0, 1e-12, 1e-6], [y_min, np.inf, 10.0])
    else:
        fn, p0 = hyperbolic, [0.1, 1.0 / max(y_max, 1e-9), max(y_min * 0.5, 0.0)]
        bounds = ([1e-9, 1e-9, 0.0], [np.inf, np.inf, y_min])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            warnings.simplefilter("ignore", RuntimeWarning)
            params, _ = curve_fit(fn, e, y, p0=p0, bounds=bounds, maxfev=2000)
    except (RuntimeError, ValueError):
        return None
    resid = y - fn(e, *params)
    return float(resid @ resid)


def _family_curve(family, e, floor, amp, rate):
    if family == "inverse_power_law":
        return inverse_power_law(e, floor, amp, rate)
    if family == "exponential":
        return exponential_decay(e, floor, amp, rate)
    return hyperbolic(e, rate / amp, 1.0 / amp, floor)  # k = a/b = rate, c = 1/b = amp


@st.composite
def noisy_histories(draw, min_n=4, max_n=80):
    """A loss history of one random family with multiplicative noise."""
    n = draw(st.integers(min_n, max_n))
    family = draw(st.sampled_from(RATE_FAMILIES))
    floor = draw(st.floats(0.01, 0.5))
    amp = draw(st.floats(0.2, 3.0))
    rate = draw(st.floats(0.05, 1.5))
    noise = draw(st.floats(0.002, 0.05))
    seed = draw(st.integers(0, 2**32 - 1))
    e = np.arange(1, n + 1, dtype=float)
    y = _family_curve(family, e, floor, amp, rate)
    y = y * (1.0 + noise * np.random.default_rng(seed).standard_normal(n))
    return e, np.maximum(y, 1e-3)


PRIORS = st.none() | st.tuples(
    st.floats(0.0, 0.5), st.floats(0.1, 3.0), st.floats(0.05, 2.0)
)


class TestClosedFormFits:
    @given(history=noisy_histories(), prior=PRIORS)
    @settings(max_examples=150, deadline=None)
    def test_batched_grid_matches_per_floor_loop(self, history, prior):
        e, y = history
        expected = _reference_ipl_grid(e, y, prior=prior)
        fit = _fit_ipl_grid(e, y, prior=prior)
        if expected is None:
            assert fit is None
            return
        floor, a, alpha = fit.params
        assert floor == expected[0]
        assert a == pytest.approx(expected[1], rel=1e-9)
        assert alpha == pytest.approx(expected[2], rel=1e-9)

    @given(history=noisy_histories())
    @settings(max_examples=60, deadline=None)
    def test_sse_no_worse_than_curve_fit(self, history):
        e, y = history
        fits = _fit_rate_families(e, y, RATE_FAMILIES)
        for family in RATE_FAMILIES:
            reference = _curve_fit_sse(family, e, y)
            if reference is not None:
                assert fits[family].sse <= reference * (1.0 + 1e-6), family

    @pytest.mark.parametrize("family", RATE_FAMILIES)
    @given(
        n=st.integers(12, 80),
        floor=st.floats(0.01, 0.5),
        amp=st.floats(0.2, 3.0),
        rate=st.floats(0.05, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_noise_free_parameters(self, family, n, floor, amp, rate):
        e = np.arange(1, n + 1, dtype=float)
        fit = _fit_rate_families(e, _family_curve(family, e, floor, amp, rate), [family])
        if family == "hyperbolic":
            expected = (rate / amp, 1.0 / amp, floor)
        else:
            expected = (floor, amp, rate)
        assert fit[family].params == pytest.approx(expected, rel=1e-4, abs=1e-6)

    def test_families_only_fit_on_positive_losses(self):
        e = np.arange(1.0, 7.0)
        y = np.array([0.5, 0.3, 0.2, 0.1, 0.05, 0.0])
        assert _fit_rate_families(e, y, RATE_FAMILIES) == {}
        assert _fit_ipl_grid(e, y) is None


class TestOfflinePredictor:
    def test_prediction_positive(self):
        w = workload("lr-higgs")
        assert OfflinePredictor(w, seed=0).predict_total_epochs() >= 1

    def test_deterministic_per_seed(self):
        w = workload("lr-higgs")
        assert (
            OfflinePredictor(w, seed=3).predict_total_epochs()
            == OfflinePredictor(w, seed=3).predict_total_epochs()
        )

    def test_error_band_matches_fig4a(self):
        """Mean offline error across seeds should be substantial (tens of
        percent) but not absurd — the paper's ~40% band, loosely."""
        w = workload("mobilenet-cifar10")
        errs = []
        for seed in range(12):
            true = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            ).epochs_to_target(w.target_loss)
            pred = OfflinePredictor(w, seed=seed).predict_total_epochs()
            errs.append(abs(pred - true) / true)
        mean = float(np.mean(errs))
        assert 0.10 < mean < 1.0

    def test_offline_worse_than_late_online(self):
        """Finding 2: online prediction (late in training) beats offline."""
        w = workload("mobilenet-cifar10")
        off_errs, on_errs = [], []
        for seed in range(10):
            true = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            ).epochs_to_target(w.target_loss)
            off = OfflinePredictor(w, seed=seed).predict_total_epochs()
            off_errs.append(abs(off - true) / true)
            sampler = LossCurveSampler(
                w.curve_params(), seed=seed, run_label=("train", w.name),
                anchor_target=w.target_loss,
            )
            p = OnlinePredictor(w.target_loss, prior=w.curve_params())
            for _ in range(max(4, int(true * 0.7))):
                p.observe(sampler.next_loss())
            on_errs.append(abs(p.predict_total_epochs() - true) / true)
        assert np.mean(on_errs) < np.mean(off_errs)

    def test_bad_sample_fraction_rejected(self):
        w = workload("lr-higgs")
        with pytest.raises(PredictionError):
            OfflinePredictor(w, sample_fraction=0.0).run_pilot()

    def test_pilot_trajectory_length(self):
        w = workload("lr-higgs")
        assert len(OfflinePredictor(w, pilot_epochs=7).run_pilot()) == 7

    def test_extrapolate_variant_positive(self):
        w = workload("mobilenet-cifar10")
        assert OfflinePredictor(w, seed=1).extrapolate_from_pilot() > 0
