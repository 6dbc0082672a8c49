"""Alert rules: the catalogue, the fire/resolve lifecycle, deduplication.

Each test drives a :class:`SLOGuard` with hand-built events and reads the
transitions one event caused off the ``alert_*`` lines it mirrored.
"""

import re
from pathlib import Path

from repro.slo import RULES, SLOGuard, SLOSpec
from repro.slo.events import Event

SLO_DOC = Path(__file__).resolve().parents[2] / "docs" / "slo.md"


def _step(guard, kind, t_s, scope="train", **data):
    """Feed one event; return the rules it (fired, resolved)."""
    before = len(guard.log.events)
    guard.on_event(Event(kind, t_s, scope=scope, data=data))
    fired, resolved = [], []
    for event in guard.log.events[before + 1:]:
        (fired if event.kind == "alert_fired" else resolved).append(event.data["rule"])
    return fired, resolved


def _epoch(guard, t_s, epoch, wall_s, **data):
    return _step(guard, "epoch_done", t_s, epoch=epoch, wall_s=wall_s,
                 cost_usd=0.0, **data)


def _projected_miss_guard():
    """Deadline 10 s, a 10-epoch horizon and one 2 s epoch done at 0.5 s:
    projected 0.5 + 9 x 2 = 18.5 s, burn rate 0.05 / 0.1 = 0.5x."""
    guard = SLOGuard(SLOSpec(deadline_s=10.0))
    _step(guard, "plan_chosen", 0.0, predicted_total_epochs=10)
    return guard, _epoch(guard, 0.5, 1, wall_s=2.0)


class TestCatalogue:
    def test_every_rule_named_and_documented(self):
        assert len(RULES) == 9
        assert set(RULES.values()) == {"warning", "critical"}
        table = dict(re.findall(r"^\| `([a-z-]+)` \| (\w+) \|", SLO_DOC.read_text(), re.M))
        assert table == RULES


class TestLifecycle:
    def test_fire_once_while_condition_holds(self):
        guard, (fired, _) = _projected_miss_guard()
        assert fired == ["deadline-projected-miss"]
        # Still projected over at the next epoch (1 + 8 x 2 = 17 s): no
        # new alert.
        assert _epoch(guard, 1.0, 2, wall_s=2.0) == ([], [])
        assert len(guard.alerts) == 1

    def test_resolve_stamps_time_and_epoch(self):
        guard, _ = _projected_miss_guard()
        # A 0.1 s epoch: 1 + 8 x 1.05 = 9.4 s, back inside the deadline.
        assert _epoch(guard, 1.0, 2, wall_s=0.1) == ([], ["deadline-projected-miss"])
        (alert,) = guard.alerts
        assert not alert.active
        assert alert.fired_t_s == 0.5 and alert.fired_epoch == 1
        assert alert.resolved_t_s == 1.0 and alert.resolved_epoch == 2

    def test_refire_after_resolve_is_a_new_alert(self):
        guard, _ = _projected_miss_guard()
        _epoch(guard, 1.0, 2, wall_s=0.1)
        fired, _ = _epoch(guard, 1.5, 3, wall_s=5.0)  # 1.5 + 7 x 2.37 s
        assert fired == ["deadline-projected-miss"] and len(guard.alerts) == 2

    def test_burn_alert_survives_escalation_to_exhausted(self):
        """deadline-burn must not bounce when the dimension escalates."""
        guard = SLOGuard(SLOSpec(deadline_s=10.0))
        assert _epoch(guard, 9.0, 5, wall_s=1.0) == (["deadline-burn"], [])  # 90%
        assert _epoch(guard, 11.0, 6, wall_s=1.0) == (["deadline-exhausted"], [])
        burn = [a for a in guard.alerts if a.rule == "deadline-burn"]
        assert burn[0].active


class TestAuxiliaryRules:
    def test_predictor_drift_threshold(self):
        guard = SLOGuard(SLOSpec(deadline_s=10.0, predictor_drift_threshold=0.25))
        _step(guard, "plan_chosen", 0.5, predicted_total_epochs=10)
        fired, _ = _step(guard, "predictor_update", 1.0, predicted_total_epochs=13)
        assert fired == ["predictor-drift"]
        assert guard.alerts[0].scope == "predictor"
        _, resolved = _step(guard, "predictor_update", 2.0, predicted_total_epochs=11)
        assert resolved == ["predictor-drift"]

    def test_drift_rule_disabled_by_spec(self):
        guard = SLOGuard(SLOSpec(deadline_s=10.0, predictor_drift_threshold=None))
        _step(guard, "plan_chosen", 0.5, predicted_total_epochs=10)
        assert _step(guard, "predictor_update", 1.0, predicted_total_epochs=100) == ([], [])

    def test_straggler_threshold(self):
        guard = SLOGuard(SLOSpec(deadline_s=10.0, straggler_slowdown=3.0))
        fired, _ = _epoch(guard, 1.0, 1, wall_s=1.0, straggler_slowdown=3.5)
        assert fired == ["straggler"]
        assert guard.alerts[0].scope == "workers"

    def test_stage_budget_overrun(self):
        guard = SLOGuard(SLOSpec(stage_budgets_usd={0: 0.5}))
        fired, _ = _step(guard, "stage_done", 1.0, scope="tune", stage=0, cost_usd=0.6)
        assert fired == ["stage-budget-overrun"]
        assert guard.alerts[0].scope == "stage:0"

    def test_payload_round_trip_fields(self):
        guard = SLOGuard(SLOSpec(deadline_s=10.0))
        _epoch(guard, 11.0, 3, wall_s=1.0)
        payload = guard.alerts[0].to_payload()
        assert payload["rule"] == "deadline-exhausted"
        assert payload["severity"] == "critical"
        assert payload["fired_epoch"] == 3
        assert payload["resolved_t_s"] is None
