"""Burn-rate accounting: clocks, projections, and the status ladder."""

import pytest

from repro.slo import SLOGuard, SLOSpec
from repro.slo.events import Event


def _guard(**spec_kwargs) -> SLOGuard:
    return SLOGuard(SLOSpec(name="t", **spec_kwargs))


def _feed(guard, kind, t_s, scope="train", **data):
    guard.on_event(Event(kind, t_s, scope=scope, data=data))


def _epoch(guard, wall_s, cost_usd, t_s=0.0):
    _feed(guard, "epoch_done", t_s, wall_s=wall_s, cost_usd=cost_usd)


def _predict(guard, total_epochs):
    _feed(guard, "predictor_update", 0.0, predicted_total_epochs=total_epochs)


def _state(guard, dimension):
    for st in guard.states():
        if st.dimension == dimension:
            return st
    raise AssertionError(f"no {dimension} dimension in {guard.states()}")


class TestClocks:
    def test_per_scope_high_water_marks_sum(self):
        guard = _guard(deadline_s=100.0)
        _feed(guard, "restart_begun", 10.0, scope="tune")
        _feed(guard, "restart_begun", 8.0, scope="tune")  # never rewinds a clock
        _feed(guard, "restart_begun", 5.0, scope="train")
        _feed(guard, "phase_done", 50.0, scope="workflow")  # keeps no clock
        assert guard.elapsed_s == 15.0

    def test_epoch_accounting(self):
        guard = _guard(budget_usd=1.0)
        _predict(guard, 20)
        for wall_s in (9.0, 9.0, 2.0, 2.0, 2.0, 2.0, 2.0):
            _epoch(guard, wall_s, 0.05)
        assert guard.epochs_done == 7
        assert guard.billed_usd == pytest.approx(0.35)
        # The window keeps only the trailing 5 epochs: 13 remaining x 2 s.
        assert guard.projected_jct_s() == pytest.approx(26.0)

    def test_stage_accounting(self):
        guard = _guard(stage_budgets_usd={0: 0.5, 1: 0.5})
        for stage, cost_usd in ((0, 0.2), (0, 0.4), (1, 0.1)):
            _feed(guard, "stage_done", 0.0, scope="tune", stage=stage, cost_usd=cost_usd)
        assert guard.billed_usd == pytest.approx(0.7)
        assert _state(guard, "stage:0").consumed == pytest.approx(0.6)
        assert _state(guard, "stage:1").consumed == pytest.approx(0.1)


class TestProjection:
    def test_no_projection_before_prediction(self):
        guard = _guard(deadline_s=100.0)
        _epoch(guard, 2.0, 0.01)
        assert guard.projected_jct_s() is None
        assert _state(guard, "deadline").status == "ok"

    def test_projection_uses_window_mean(self):
        guard = _guard(deadline_s=100.0)
        _predict(guard, 10)
        for t in (2.0, 4.0):
            _epoch(guard, 2.0, 0.01, t_s=t)
        # 4 s elapsed + 8 remaining epochs x 2 s mean = 20 s
        assert guard.projected_jct_s() == pytest.approx(20.0)

    def test_projected_cost(self):
        guard = _guard(budget_usd=1.0)
        _predict(guard, 10)
        for _ in range(5):
            _epoch(guard, 2.0, 0.02)
        assert guard.projected_cost_usd() == pytest.approx(0.1 + 5 * 0.02)


class TestStatusLadder:
    def test_exhausted_beats_everything(self):
        guard = _guard(deadline_s=10.0)
        _feed(guard, "restart_begun", 10.0)
        assert _state(guard, "deadline").status == "exhausted"
        assert _state(guard, "deadline").violated

    def test_critical_on_projected_overshoot(self):
        guard = _guard(deadline_s=10.0)
        _predict(guard, 10)
        _epoch(guard, 2.0, 0.0, t_s=2.0)  # projection: 2 + 9 x 2 = 20 s > 10 s
        assert _state(guard, "deadline").status == "critical"
        assert not _state(guard, "deadline").violated

    def test_warn_on_consumption_ratio(self):
        guard = _guard(deadline_s=10.0)
        _feed(guard, "restart_begun", 9.0)  # 90% > default warn_ratio 0.85
        assert _state(guard, "deadline").status == "warn"

    def test_warn_on_burn_rate(self):
        # 20% of the budget consumed at 10% progress -> burn rate 2x.
        guard = _guard(budget_usd=1.0)
        _predict(guard, 10)
        _epoch(guard, 1.0, 0.2)
        st = _state(guard, "budget")
        assert st.burn_rate == pytest.approx(2.0)
        assert st.status in ("warn", "critical")

    def test_burn_rate_ignored_below_min_fraction(self):
        # 2% consumed at 1% progress is a 2x burn rate, but too early to act.
        guard = _guard(budget_usd=1.0)
        _predict(guard, 100)
        _epoch(guard, 1.0, 0.02)
        assert _state(guard, "budget").status == "critical"  # projection, not burn
        guard2 = _guard(budget_usd=1.0)
        _predict(guard2, 100)
        guard2.epochs_done = 1  # no cost window -> no projection
        guard2.billed_usd = 0.02
        st = _state(guard2, "budget")
        assert st.burn_rate == pytest.approx(2.0) and st.status == "ok"

    def test_ok_when_on_track(self):
        guard = _guard(deadline_s=100.0, budget_usd=1.0)
        _predict(guard, 10)
        for t in (2.0, 4.0):
            _epoch(guard, 2.0, 0.01, t_s=t)
        assert {st.status for st in guard.states()} == {"ok"}

    def test_dimension_order_is_fixed(self):
        guard = _guard(deadline_s=1.0, budget_usd=1.0, stage_budgets_usd={1: 0.5, 0: 0.5})
        assert [st.dimension for st in guard.states()] == [
            "deadline", "budget", "stage:0", "stage:1",
        ]
