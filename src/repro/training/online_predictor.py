"""Online epoch prediction by loss-curve fitting (paper §II-C2, Fig. 4b).

After every epoch the predictor refits a family of convergence curves to
the observed (epoch, loss) points and solves for the epoch at which the
best-fitting curve reaches the target loss. The paper reports this error
decaying to ~5% as state accumulates; the fit families follow Optimus [16]:

* inverse power law  l(e) = l_inf + a * (e+1)^(-alpha)
* exponential decay  l(e) = l_inf + a * exp(-beta * e)
* hyperbolic         l(e) = 1 / (a*e + b) + l_inf

plus ``ipl_grid``, the inverse power law fitted by a grid over its floor.
All four are closed-form / variable-projection fits. No optimiser is
needed: once one parameter is fixed — the floor for ``ipl_grid`` (then
linear in log space), the rate alpha, beta or k = a/b for the others —
each family is linear in its remaining two, so every refit is a few
batched least-squares passes over a grid of that one parameter.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from repro.common.errors import PredictionError
from repro.ml.curves import exponential_decay, hyperbolic, inverse_power_law


@dataclass(frozen=True, slots=True)
class CurveFit:
    """One fitted curve family."""

    family: str
    params: tuple[float, ...]
    sse: float

    def loss_at(self, epoch: np.ndarray | float) -> np.ndarray | float:
        fn = _FAMILIES[self.family][0]
        return fn(epoch, *self.params)


def _ipl_epochs_to(target: float, l_inf: float, a: float, alpha: float) -> float:
    if target <= l_inf or a <= 0 or alpha <= 0:
        raise PredictionError("target below fitted floor (inverse power law)")
    # Solve in log space; a flat fitted tail (tiny alpha) overflows the
    # direct power, which just means "unreachably far".
    log_e = np.log(a / (target - l_inf)) / alpha
    if log_e > 25.0:
        raise PredictionError("fitted curve reaches the target unreachably late")
    return float(np.exp(log_e) - 1.0)


def _exp_epochs_to(target: float, l_inf: float, a: float, beta: float) -> float:
    if target <= l_inf or a <= 0 or beta <= 0:
        raise PredictionError("target below fitted floor (exponential)")
    return float(np.log(a / (target - l_inf)) / beta)


def _hyp_epochs_to(target: float, a: float, b: float, l_inf: float) -> float:
    if target <= l_inf or a <= 0:
        raise PredictionError("target below fitted floor (hyperbolic)")
    return (1.0 / (target - l_inf) - b) / a


_FAMILIES = {
    "inverse_power_law": (inverse_power_law, _ipl_epochs_to),
    "exponential": (exponential_decay, _exp_epochs_to),
    "hyperbolic": (hyperbolic, _hyp_epochs_to),
    # Grid-floor IPL shares the inverse-power-law functional form and
    # solver; it differs only in how it is fitted (see _fit_ipl_grid).
    "ipl_grid": (inverse_power_law, _ipl_epochs_to),
}


_GRID_FRACS = np.linspace(0.0, 0.98, 25)


def _fit_ipl_grid(
    e: np.ndarray,
    y: np.ndarray,
    prior: tuple[float, float, float] | None = None,
    prior_weight: float = 3.0,
) -> CurveFit | None:
    """Robust inverse-power-law fit by grid search over the floor.

    For each candidate floor l_inf the model becomes linear in log space:
    ``log(y - l_inf) = log(a) - alpha * log(e + 1)``, solved by least
    squares — all 25 floors at once, as one batched simple regression. The
    floor minimizing the (original-space) SSE wins; the first one on a tie.
    A grid rather than a descent keeps the fit out of local minima, which
    matters when the scheduler acts on every mid-run fit.

    Early in training the (floor, alpha) pair is not identifiable from the
    observations — wildly different curves fit the first epochs equally
    well. An optional *prior* ``(floor0, a0, alpha0)`` (the workload's
    nominal convergence curve) regularizes the choice; its weight decays
    as 1/n so the data dominates once the run is long enough. This is what
    a production loss-curve fitter does: it is initialized from the model
    family's known convergence behaviour.
    """
    y_min = float(y.min())
    if y_min <= 0:
        return None
    n = len(y)
    e1 = e + 1.0
    log_e = np.log(e1)
    log_e_mean = np.add.reduce(log_e) / n
    x = log_e - log_e_mean
    floors = _GRID_FRACS * y_min
    log_gap = np.log(y - floors[:, None])
    slope = (log_gap @ x) / (x @ x)
    alpha = -slope
    a = np.exp(np.add.reduce(log_gap, axis=1) / n - slope * log_e_mean)
    # inverse_power_law with its (e + 1) hoisted; -alpha is slope exactly.
    resid = y - (floors[:, None] + a[:, None] * np.power(e1, slope[:, None]))
    sse = np.einsum("ij,ij->i", resid, resid)
    yc = y - np.add.reduce(y) / n
    score = sse / (n * (float(np.add.reduce(yc * yc) / n) + 1e-12))
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


# Variable projection. Each raw family is linear in (floor, amplitude) once
# its rate is fixed: l(e) = floor + amplitude * phi(e; rate), with the
# hyperbolic curve rewritten as c / (k*e + 1) + l_inf (k = a/b, c = 1/b).
# For a grid of rates the box-bounded two-parameter least squares has a
# closed form, so the fit is a 1-D search over the rate: a log-spaced grid,
# then repeated zooms onto the best point's neighbours. A refit that starts
# from the previous fit's rates skips the grid and most zooms (see
# _fit_rate_families).
#
# family -> log10 rate range: alpha in [1e-3, 10] and beta in [1e-6, 10],
# the bounds the raw forms have always been fitted within. k has no bound
# of its own; [1e-12, 1e12] spans its whole useful range, from the flat
# (linear) limit to the pure 1/e shape.
_RATE_RANGES = {
    "inverse_power_law": (-3.0, 1.0),
    "exponential": (-6.0, 1.0),
    "hyperbolic": (-12.0, 12.0),
}
_AMP_MIN = 1e-12
_HYP_PARAM_MIN = 1e-9  # lower bound on the raw hyperbolic a and b
_GRID = np.linspace(0.0, 1.0, 33)  # first pass, over the whole log10 range
_ZOOM = np.linspace(-1.0, 1.0, 33)  # each zoom, between the best's neighbours
_ZOOM_ROUNDS = 6
_WARM_ROUNDS = 3  # a warm start runs zoom rounds 1 to 3 only


def _log_rate(fit: CurveFit) -> float:
    """The log10 rate a raw-family fit won (k = a/b for the hyperbolic)."""
    p = fit.params
    return math.log10(p[0] / p[1] if fit.family == "hyperbolic" else p[2])


def _fit_rate_families(
    e: np.ndarray, y: np.ndarray, families: list[str],
    start: list[float] | None = None,
) -> dict[str, CurveFit] | None:
    """Fit the raw families by variable projection, all in one stacked pass.

    Per (family, rate) row, ``y ~ floor + amp * phi`` is least squares with
    ``floor`` in ``[0, y_min]`` and ``amp`` in ``[_AMP_MIN, amp_hi]``. The
    SSE is a convex quadratic, so its box minimum is the unconstrained one
    when that is feasible, else the best of the four edges, each minimized
    in 1-D and clipped. Each zoom round fills the same preallocated buffers.

    The cold search (no ``start``) runs the whole-range grid, then
    ``_ZOOM_ROUNDS`` zooms. ``start`` holds one log10 rate per family,
    normally the previous refit's winners: the search then skips the grid
    and centres zoom round 1 (one grid step either side) on it, and stops
    after round ``_WARM_ROUNDS``. If a family's best point in that first
    window is on its edge, the optimum may lie outside it, and the warm
    search gives up: it returns None and the caller reruns cold.
    """
    y_min = float(y.min())
    if not families or y_min <= 0:
        return {}
    nf, g, n = len(families), _GRID.size, y.size
    lo, hi = (col[:, None] for col in np.array([_RATE_RANGES[f] for f in families]).T)
    hyp = families.index("hyperbolic") if "hyperbolic" in families else nf
    # Every basis is a function of z = rate * x: exp(-z) with x = log(e+1)
    # (power law) or x = e (exponential), and 1 / (1 + z) with x = e. The
    # exp rows hold -x, and rate * -x is -z exactly.
    x = np.stack([e if i == hyp else -np.log(e + 1.0) if f == "inverse_power_law" else -e
                  for i, f in enumerate(families)])
    y_mean = y.mean()
    yc = y - y_mean
    y_off = y_mean - np.array([[0.0], [y_min]])  # y_mean - floor at floor's bounds
    phi = np.empty((nf, g, n))
    pc = phi.reshape(nf * g, n)  # centred in place
    resid = np.empty_like(pc)
    exp_phi = [phi[s] for s in (slice(0, hyp), slice(hyp + 1, nf)) if s.start < s.stop]
    hyp_phi = phi[hyp:hyp + 1]
    # Candidate rows: interior, floor = 0, floor = y_min, amp = _AMP_MIN, amp = amp_hi.
    floors, amps, d_amp, extra = np.empty((4, 5, nf * g))
    floors[1], floors[2], amps[3], amps[4] = 0.0, y_min, _AMP_MIN, np.inf
    floor0, amp0, amp_hi = floors[0], amps[0], amps[4]
    hyp_amp_hi = amp_hi.reshape(nf, g)[hyp:hyp + 1]
    fl_edge, amp_edge = floors[3:], amps[1:3]  # floor at amp's bounds, amp at floor's
    rows = np.arange(nf)
    step = (hi - lo) / (g - 1)
    if start is None:
        log_rate = lo + (hi - lo) * _GRID
        rounds = range(_ZOOM_ROUNDS + 1)
    else:
        centre = np.array(start)[:, None]
        rounds = range(1, _WARM_ROUNDS + 1)
    for round_ in rounds:
        if round_:
            # Clips are maximum then minimum (no np.clip wrapper). The two
            # differ only on -0.0 against the floor's 0.0 bound, and
            # y_mean - amp * p_mean is never -0.0 (y_mean > 0).
            log_rate = np.minimum(np.maximum(centre + step * _ZOOM, lo), hi)
            step = step / ((_ZOOM.size - 1) // 2)
        rate = 10.0**log_rate
        np.multiply(rate[:, :, None], x[:, None, :], out=phi)
        for view in exp_phi:
            np.exp(view, out=view)
        if hyp < nf:
            np.divide(1.0, np.add(1.0, hyp_phi, out=hyp_phi), out=hyp_phi)
            # b = 1/c >= 1e-9 and a = k/c >= 1e-9 bound c from above.
            np.divide(np.minimum(rate[hyp:hyp + 1], 1.0), _HYP_PARAM_MIN, out=hyp_amp_hi)
        p_mean = np.add.reduce(pc, axis=1) / n
        np.subtract(pc, p_mean[:, None], out=pc)
        spp = np.maximum(np.einsum("ij,ij->i", pc, pc), 1e-300)
        spy = pc @ yc
        np.divide(spy, spp, out=amp0)
        np.subtract(y_mean, np.multiply(amp0, p_mean, out=floor0), out=floor0)
        np.subtract(yc, np.multiply(amp0[:, None], pc, out=resid), out=resid)
        sse0 = np.einsum("ij,ij->i", resid, resid)
        np.subtract(y_mean, np.multiply(amps[3:], p_mean, out=fl_edge), out=fl_edge)
        np.minimum(np.maximum(fl_edge, 0.0, out=fl_edge), y_min, out=fl_edge)
        np.add(spy, np.multiply(n * p_mean, y_off, out=amp_edge), out=amp_edge)
        np.divide(amp_edge, spp + n * p_mean**2, out=amp_edge)
        np.minimum(np.maximum(amp_edge, _AMP_MIN, out=amp_edge), amp_hi, out=amp_edge)
        # SSE(floor, amp) = sse0 + n*(d_floor + d_amp*p_mean)^2 + spp*d_amp^2
        np.subtract(amps, amp0, out=d_amp)
        np.add(np.subtract(floors, floor0, out=extra), d_amp * p_mean, out=extra)
        np.multiply(n, np.square(extra, out=extra), out=extra)
        np.add(extra, np.multiply(spp, np.square(d_amp, out=d_amp), out=d_amp), out=extra)
        feasible = (floor0 >= 0.0) & (floor0 <= y_min) & (amp0 >= _AMP_MIN) & (amp0 <= amp_hi)
        extra[0] = np.where(feasible, 0.0, np.inf)
        # The column minimum is the argmin's entry, NaN included.
        best = (sse0 + np.minimum.reduce(extra, axis=0)).reshape(nf, g).argmin(axis=1)
        if start is not None and round_ == 1 and ((best == 0) | (best == g - 1)).any():
            return None
        centre = log_rate[rows, best][:, None]
    cols = rows * g + best
    pick = extra[:, cols].argmin(axis=0)
    fits = {}
    for family, r, l_inf, c in zip(families, rate[rows, best].tolist(),
                                   floors[pick, cols].tolist(), amps[pick, cols].tolist()):
        params = (r / c, 1.0 / c, l_inf) if family == "hyperbolic" else (l_inf, c, r)
        resid = y - _FAMILIES[family][0](e, *params)
        fits[family] = CurveFit(family=family, params=params, sse=float(resid @ resid))
    return fits


class OnlinePredictor:
    """Fits the convergence curve online and predicts epochs-to-target.

    Usage: call :meth:`observe` after every epoch, then
    :meth:`predict_total_epochs`. Needs ``min_points`` observations before
    the first prediction (raises :class:`PredictionError` earlier). Every
    refit after the first starts the raw families' rate searches from the
    previous refit's rates.
    """

    def __init__(
        self,
        target_loss: float,
        min_points: int = 4,
        families: tuple[str, ...] = tuple(_FAMILIES),
        max_prediction: float = 100_000.0,
        prior: "object | None" = None,
        prior_weight: float = 3.0,
    ) -> None:
        """``prior`` may be a :class:`repro.ml.curves.CurveParams` with the
        workload's nominal convergence curve; it regularizes the grid-floor
        IPL fit early in training (weight decays as observations arrive)."""
        if target_loss <= 0:
            raise PredictionError(f"target_loss must be positive, got {target_loss}")
        unknown = set(families) - set(_FAMILIES)
        if unknown:
            raise PredictionError(f"unknown curve families: {sorted(unknown)}")
        self.target_loss = target_loss
        self.min_points = max(3, min_points)
        self.families = families
        self.max_prediction = max_prediction
        if prior is not None:
            self._prior = (
                float(prior.floor_loss),
                float(prior.amplitude),
                float(prior.alpha),
            )
        else:
            self._prior = None
        self.prior_weight = prior_weight
        self._epochs: list[float] = []
        self._losses: list[float] = []
        self._rate_fits: dict[str, CurveFit] = {}  # the last refit's, to start the next
        self.last_fit: CurveFit | None = None

    @property
    def n_observations(self) -> int:
        return len(self._losses)

    def observe(self, loss: float) -> None:
        """Record the loss at the end of the next epoch (1-based index)."""
        self._epochs.append(float(len(self._epochs) + 1))
        self._losses.append(float(loss))

    def predict_total_epochs(self) -> float:
        """Predicted total epochs (from epoch 1) to reach the target loss.

        Robustness: every converged family contributes a prediction and the
        *median* is reported — a single family with a pathological tail
        (e.g. an exponential fitted to power-law data) cannot blow up the
        estimate the scheduler acts on.
        """
        if self._losses and min(self._losses) <= self.target_loss:
            # Already there: the answer is the first epoch that hit it.
            for i, loss in enumerate(self._losses, start=1):
                if loss <= self.target_loss:
                    return float(i)
        if self.n_observations < self.min_points:
            raise PredictionError(
                f"need >= {self.min_points} observations, have {self.n_observations}"
            )
        e = np.asarray(self._epochs)
        y = np.asarray(self._losses)
        families = [f for f in dict.fromkeys(self.families) if f != "ipl_grid"]
        rate_fits = None
        if self._rate_fits:
            rate_fits = _fit_rate_families(
                e, y, families, start=[_log_rate(self._rate_fits[f]) for f in families]
            )
        if rate_fits is None:
            rate_fits = _fit_rate_families(e, y, families)
        self._rate_fits = rate_fits
        fitted = dict(rate_fits)
        if "ipl_grid" in self.families:
            fitted["ipl_grid"] = _fit_ipl_grid(
                e, y, prior=self._prior, prior_weight=self.prior_weight
            )
        predictions: dict[str, float] = {}
        fits: dict[str, CurveFit] = {}
        for family in self.families:
            fit = fitted.get(family)
            if fit is None:
                continue
            _, solver = _FAMILIES[family]
            try:
                p = solver(self.target_loss, *fit.params)
            except PredictionError:
                continue
            if math.isfinite(p) and p >= 0:
                predictions[family] = float(p)
                fits[family] = fit
        if not predictions:
            raise PredictionError("no curve family produced a usable prediction")
        # The best-fitting family's prediction, clamped toward the family
        # median when it is a >3x outlier (one family with a pathological
        # tail must not blow up the value the scheduler acts on). With a
        # prior, the regularized grid fit is preferred outright — raw SSE
        # rewards overfit families whose extrapolation is unstable.
        if self._prior is not None and "ipl_grid" in fits:
            best_family = "ipl_grid"
        else:
            best_family = min(fits, key=lambda f: fits[f].sse)
        self.last_fit = fits[best_family]
        predicted = predictions[best_family]
        median = statistics.median(predictions.values())  # as np.median, minus its overhead
        if median > 0 and (predicted > 3.0 * median or predicted < median / 3.0):
            predicted = median
        return float(min(max(predicted, self.n_observations), self.max_prediction))
