"""The online refit against a kept scalar reference.

``online_predictor`` refits with one stacked pass per zoom round over
preallocated buffers. The functions below are the straightforward form of
its cold search, kept as written: each round rebuilds its candidate table
from scratch. The cold search must match them bit for bit: the ``repr``
of every fit, NaN and inf included. A refit that starts warm from the
previous fit runs fewer zoom rounds, so it only has to land within the
final grid spacing's worth of SSE of the cold fit on the same history.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.errors import PredictionError
from repro.ml.curves import CurveParams, inverse_power_law
from repro.training import online_predictor
from repro.training.online_predictor import (
    _AMP_MIN,
    _FAMILIES,
    _GRID,
    _GRID_FRACS,
    _HYP_PARAM_MIN,
    _RATE_RANGES,
    _WARM_ROUNDS,
    _ZOOM,
    _ZOOM_ROUNDS,
    CurveFit,
    OnlinePredictor,
    _fit_ipl_grid,
    _fit_rate_families,
    _log_rate,
)

RATE_FAMILIES = ("inverse_power_law", "exponential", "hyperbolic")


def reference_ipl_grid(e, y, prior=None, prior_weight=3.0):
    y_min = float(y.min())
    if y_min <= 0:
        return None
    n = len(y)
    log_e = np.log(e + 1.0)
    x = log_e - log_e.mean()
    floors = _GRID_FRACS * y_min
    log_gap = np.log(y - floors[:, None])
    slope = (log_gap @ x) / (x @ x)
    alpha = -slope
    a = np.exp(log_gap.mean(axis=1) - slope * log_e.mean())
    resid = y - inverse_power_law(e, floors[:, None], a[:, None], alpha[:, None])
    sse = np.einsum("ij,ij->i", resid, resid)
    score = sse / (n * (float(np.var(y)) + 1e-12))
    if prior is not None:
        floor0, a0, alpha0 = prior
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log(alpha / max(alpha0, 1e-12))
        penalty = log_ratio**2 + ((floors - floor0) / max(a0, 1e-12)) ** 2
        score = score + (prior_weight / n) * penalty
    score = np.where(alpha > 0, score, np.inf)
    best = int(np.argmin(score))
    if not np.isfinite(score[best]):
        return None
    return CurveFit(
        family="ipl_grid",
        params=(float(floors[best]), float(a[best]), float(alpha[best])),
        sse=float(sse[best]),
    )


def reference_bounded_linear_fit(phi, y, floor_hi, amp_lo, amp_hi):
    n = y.size
    y_mean = y.mean()
    yc = y - y_mean
    p_mean = phi.mean(axis=1)
    pc = phi - p_mean[:, None]
    spp = np.maximum(np.einsum("ij,ij->i", pc, pc), 1e-300)
    spy = pc @ yc
    amp0 = spy / spp
    floor0 = y_mean - amp0 * p_mean
    resid = yc - amp0[:, None] * pc
    sse0 = np.einsum("ij,ij->i", resid, resid)
    edge_floor = np.array([[0.0], [floor_hi]])
    edge_amp = np.stack([np.full_like(amp0, amp_lo), amp_hi])
    floors = np.vstack(
        [floor0, np.broadcast_to(edge_floor, (2, amp0.size)),
         np.clip(y_mean - edge_amp * p_mean, 0.0, floor_hi)]
    )
    amps = np.vstack(
        [amp0,
         np.clip((spy + n * p_mean * (y_mean - edge_floor)) / (spp + n * p_mean**2),
                 amp_lo, amp_hi),
         edge_amp]
    )
    d_amp = amps - amp0
    extra = n * (floors - floor0 + d_amp * p_mean) ** 2 + spp * d_amp**2
    feasible = (floor0 >= 0.0) & (floor0 <= floor_hi) & (amp0 >= amp_lo) & (amp0 <= amp_hi)
    extra[0] = np.where(feasible, 0.0, np.inf)
    pick = np.argmin(extra, axis=0)
    cols = np.arange(amp0.size)
    return sse0 + extra[pick, cols], floors[pick, cols], amps[pick, cols]


def reference_rate_families(e, y, families):
    y_min = float(y.min())
    if not families or y_min <= 0:
        return {}
    lo, hi = (col[:, None] for col in np.array([_RATE_RANGES[f] for f in families]).T)
    x = np.stack([np.log(e + 1.0) if f == "inverse_power_law" else e for f in families])
    hyp = families.index("hyperbolic") if "hyperbolic" in families else None
    rows = np.arange(len(families))
    log_rate = lo + (hi - lo) * _GRID
    step = (hi - lo) / (_GRID.size - 1)
    for round_ in range(_ZOOM_ROUNDS + 1):
        if round_:
            centre = log_rate[rows, best][:, None]
            log_rate = np.clip(centre + step * _ZOOM, lo, hi)
            step = step / ((_ZOOM.size - 1) // 2)
        rate = 10.0**log_rate
        z = rate[:, :, None] * x[:, None, :]
        phi = np.exp(-z)
        amp_hi = np.full(rate.shape, np.inf)
        if hyp is not None:
            phi[hyp] = 1.0 / (1.0 + z[hyp])
            amp_hi[hyp] = np.minimum(rate[hyp], 1.0) / _HYP_PARAM_MIN
        sse, floor, amp = (
            v.reshape(rate.shape)
            for v in reference_bounded_linear_fit(
                phi.reshape(-1, y.size), y, y_min, _AMP_MIN, amp_hi.ravel()
            )
        )
        best = np.argmin(sse, axis=1)
    fits = {}
    for i, family in enumerate(families):
        r, l_inf, c = (float(v[i, best[i]]) for v in (rate, floor, amp))
        params = (r / c, 1.0 / c, l_inf) if family == "hyperbolic" else (l_inf, c, r)
        resid = y - _FAMILIES[family][0](e, *params)
        fits[family] = CurveFit(family=family, params=params, sse=float(resid @ resid))
    return fits


class ReferencePredictor(OnlinePredictor):
    """``OnlinePredictor`` with the reference fits and its original tail."""

    def predict_total_epochs(self) -> float:
        if self._losses and min(self._losses) <= self.target_loss:
            for i, loss in enumerate(self._losses, start=1):
                if loss <= self.target_loss:
                    return float(i)
        if self.n_observations < self.min_points:
            raise PredictionError(
                f"need >= {self.min_points} observations, have {self.n_observations}"
            )
        e = np.asarray(self._epochs)
        y = np.asarray(self._losses)
        fitted = reference_rate_families(
            e, y, [f for f in dict.fromkeys(self.families) if f != "ipl_grid"]
        )
        if "ipl_grid" in self.families:
            fitted["ipl_grid"] = reference_ipl_grid(
                e, y, prior=self._prior, prior_weight=self.prior_weight
            )
        predictions, fits = {}, {}
        for family in self.families:
            fit = fitted.get(family)
            if fit is None:
                continue
            try:
                p = _FAMILIES[family][1](self.target_loss, *fit.params)
            except PredictionError:
                continue
            if np.isfinite(p) and p >= 0:
                predictions[family] = float(p)
                fits[family] = fit
        if not predictions:
            raise PredictionError("no curve family produced a usable prediction")
        if self._prior is not None and "ipl_grid" in fits:
            best_family = "ipl_grid"
        else:
            best_family = min(fits, key=lambda f: fits[f].sse)
        self.last_fit = fits[best_family]
        predicted = predictions[best_family]
        median = float(np.median(list(predictions.values())))
        if median > 0 and (predicted > 3.0 * median or predicted < median / 3.0):
            predicted = median
        return float(min(max(predicted, self.n_observations), self.max_prediction))


SHAPES = ("ipl", "exponential", "hyperbolic", "constant", "noisy", "non_positive",
          "non_finite")


@st.composite
def histories(draw, max_n=150, shapes=SHAPES):
    """An epoch axis ``1..n`` and a loss history of one of ``shapes``."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(shapes))
    floor = draw(st.floats(0.0, 0.5))
    amp = draw(st.floats(1e-3, 5.0))
    rate = draw(st.floats(1e-3, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = np.arange(1, n + 1, dtype=float)
    if shape == "ipl":
        y = floor + amp * (e + 1.0) ** -rate
    elif shape == "exponential":
        y = floor + amp * np.exp(-rate * e)
    elif shape == "hyperbolic":
        y = floor + 1.0 / (rate * e + 1.0 / amp)
    elif shape == "constant":
        y = np.full(n, floor + amp)
    else:
        y = (floor + amp * (e + 1.0) ** -rate) * (1.0 + 0.2 * rng.standard_normal(n))
        if shape == "non_positive":
            y[rng.integers(n)] = draw(st.sampled_from([0.0, -0.0, -1e-3, -2.0]))
        elif shape == "non_finite":
            y[rng.integers(n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return e, y


# Every non-empty subset of the rate families, in every order.
FAMILY_ORDERS = [
    list(order)
    for k in range(1, len(RATE_FAMILIES) + 1)
    for order in itertools.permutations(RATE_FAMILIES, k)
]
PRIORS = st.none() | st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 5.0), st.floats(0.0, 3.0)
)


@given(history=histories(), families=st.sampled_from(FAMILY_ORDERS), prior=PRIORS)
@settings(max_examples=300, deadline=None)
def test_fits_match_reference_bit_for_bit(history, families, prior):
    e, y = history
    with np.errstate(all="ignore"):
        expected = (reference_rate_families(e, y, families),
                    reference_ipl_grid(e, y, prior=prior))
        got = (_fit_rate_families(e, y, families), _fit_ipl_grid(e, y, prior=prior))
    assert repr(got) == repr(expected)


def _outcome(predictor):
    try:
        value = predictor.predict_total_epochs()
    except PredictionError as exc:
        value = f"PredictionError: {exc}"
    return repr(value), repr(predictor.last_fit)


def _spy_refits():
    """Patch the predictor's rate-family fit to log each call as
    ``(e, y, families, start, result)``."""
    calls = []
    fit = online_predictor._fit_rate_families

    def spy(e, y, families, start=None):
        result = fit(e, y, families, start)
        calls.append((e, y, families, start, result))
        return result

    return calls, mock.patch.object(online_predictor, "_fit_rate_families", spy)


@given(
    history=histories(max_n=60),
    families=st.permutations(list(_FAMILIES)).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
    ),
    target=st.floats(0.05, 1.0),
    prior=st.none() | st.tuples(st.floats(0.01, 0.5), st.floats(0.5, 3.0),
                                st.floats(0.05, 2.0)),
)
@settings(max_examples=40, deadline=None)
def test_predictor_matches_reference_over_growing_history(history, families, target, prior):
    """Every prediction served without a warm fit (no refit, the first
    refit, or a warm search that gave up) is the reference's, bit for bit,
    and so is ``last_fit`` from the first cold refit that sets it after
    a warm one."""
    _, y = history
    curve = None if prior is None else CurveParams(prior[0] + prior[1], prior[0], prior[2])
    new = OnlinePredictor(target, families=families, prior=curve)
    ref = ReferencePredictor(target, families=families, prior=curve)
    calls, patch = _spy_refits()
    fit_comparable = True
    with np.errstate(all="ignore"), patch:
        for loss in y:
            new.observe(loss)
            ref.observe(loss)
            del calls[:]
            last_fit = new.last_fit
            (value, fit), (ref_value, ref_fit) = _outcome(new), _outcome(ref)
            warm = bool(calls) and calls[-1][3] is not None
            if warm:
                fit_comparable = False
            else:
                assert value == ref_value
                fit_comparable |= new.last_fit is not last_fit
            if fit_comparable:
                assert fit == ref_fit


def _amplitude(fit):
    return 1.0 / fit.params[1] if fit.family == "hyperbolic" else fit.params[1]


@given(
    history=histories(max_n=60, shapes=SHAPES[:5]),
    families=st.sampled_from(FAMILY_ORDERS),
)
@settings(max_examples=60, deadline=None)
def test_warm_fit_is_within_the_final_grid_spacing_of_the_cold_fit(history, families):
    """A warm fit's SSE is within what its coarser final grid allows.

    Moving a family's log10 rate by d moves each point of its basis by at
    most ln(10)/e * |d| (the bound on |z phi'(z)| * ln 10 for exp(-z), and
    above ln(10)/4 for 1/(1+z)). The warm search's last grid has spacing
    h = step / 16**_WARM_ROUNDS, so one of its points lies within h/2 of
    the cold winner; the cold floor and amplitude held there give
    ``sqrt(SSE) <= sqrt(SSE_cold) + sqrt(n) * amp * ln(10)/e * h/2``, and
    the warm winner does no worse. The same holds the other way round with
    the cold search's spacing. A small float slack covers the rounding.

    The warm search is local: it only looks within one grid step of its
    start, so the bound applies whenever the cold winner lies in that
    window. (When it does not, the SSE over the rate has a second dip
    outside the window, and the warm fit may stay in the previous fit's
    dip; on a noisy history that dip can be the worse one.)
    """
    _, y = history
    predictor = OnlinePredictor(1e-9, families=tuple(families))
    calls, patch = _spy_refits()
    with np.errstate(all="ignore"), patch:
        for loss in y:
            predictor.observe(loss)
            try:
                predictor.predict_total_epochs()
            except PredictionError:
                pass
    k = math.log(10.0) / math.e
    zoom = (_ZOOM.size - 1) // 2  # each zoom round divides the spacing by this
    for e_, y_, fams, start, warm in calls:
        if start is None or warm is None:
            continue
        cold = _fit_rate_families(e_, y_, fams)
        n = y_.size
        slack = 1e-9 * float(y_ @ y_)
        for family, centre in zip(fams, start):
            lo, hi = _RATE_RANGES[family]
            step = (hi - lo) / (_GRID.size - 1)
            if not abs(_log_rate(cold[family]) - centre) <= step:
                continue
            for a, b, rounds in ((cold, warm, _WARM_ROUNDS), (warm, cold, _ZOOM_ROUNDS)):
                h = step / zoom**rounds
                reach = math.sqrt(n) * abs(_amplitude(a[family])) * k * h / 2
                bound = (math.sqrt(a[family].sse) + reach) ** 2 + slack
                assert b[family].sse <= bound, (family, a[family], b[family], bound)
