"""The rule catalogue: stable IDs to analyses.

``all_rules()`` builds one fresh instance of every registered rule;
``rules_by_id`` resolves ``--select``/``--ignore`` CLI filters. IDs are
append-only — a retired rule's ID is never reused, so baselines and
suppression comments stay meaningful across versions. Retired so far:
REP003, REP004, REP008, REP009–REP013.
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.determinism import UnseededRandomnessRule, WallClockRule
from repro.analysis.rules.eventqueue import EventQueueUnificationRule
from repro.analysis.rules.exceptions import BroadExceptRule
from repro.analysis.rules.ordering import UnorderedIterationRule
from repro.analysis.rules.schema import SchemaDisciplineRule

_RULE_CLASSES: tuple[type[Rule], ...] = (
    UnseededRandomnessRule,  # REP001
    WallClockRule,  # REP002
    BroadExceptRule,  # REP005
    SchemaDisciplineRule,  # REP006
    UnorderedIterationRule,  # REP007
    EventQueueUnificationRule,  # REP014
)


def all_rules() -> list[Rule]:
    """One instance of every registered rule, in rule-ID order."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda r: r.rule_id)


def rules_by_id() -> dict[str, Rule]:
    return {rule.rule_id: rule for rule in all_rules()}


__all__ = [
    "all_rules",
    "rules_by_id",
    "UnseededRandomnessRule",
    "WallClockRule",
    "EventQueueUnificationRule",
    "BroadExceptRule",
    "SchemaDisciplineRule",
    "UnorderedIterationRule",
]
