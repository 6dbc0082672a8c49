"""Declarative SLO specifications (schema ``repro-slo/v1``).

An :class:`SLOSpec` states what a run promised: an end-to-end deadline, a
spend budget, optional per-stage sub-budgets for SHA tuning stages, and
thresholds for the two leading indicators the paper's scheduler itself
watches — online-predictor drift (Algorithm 2's δ) and worker straggling.
The spec is pure data: the guard (``repro.slo.guard``) interprets it, the
CLI loads it from JSON, and the schema registry (``repro.common.schemas``)
pins its key set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import SLOError
from repro.common.validation import is_finite

SLO_SCHEMA = "repro-slo/v1"

#: Keys a ``repro-slo/v1`` document may carry (see ``repro.common.schemas``).
_PAYLOAD_KEYS = frozenset(
    {
        "schema", "name", "deadline_s", "budget_usd", "stage_budgets_usd",
        "warn_ratio", "predictor_drift_threshold", "straggler_slowdown",
    }
)

#: The scalar fields: each a finite number, or ``None`` (all but ``warn_ratio``).
_NUMBER_FIELDS = (
    "deadline_s", "budget_usd", "warn_ratio", "predictor_drift_threshold",
    "straggler_slowdown",
)


@dataclass(frozen=True, slots=True)
class SLOSpec:
    """What one run is held to.

    Attributes:
        name: label echoed in reports and alert messages.
        deadline_s: end-to-end completion deadline (simulated seconds), the
            paper's QoS target; ``None`` disables the dimension.
        budget_usd: end-to-end spend budget B; ``None`` disables it.
        stage_budgets_usd: per-SHA-stage sub-budgets as ``(stage, usd)``
            pairs (stage indices are 0-based).
        warn_ratio: consumed fraction of any budget at which its state
            degrades to ``warn``.
        predictor_drift_threshold: relative drift of the online predictor's
            horizon vs. the initially planned one that raises an alert;
            ``None`` disables the rule.
        straggler_slowdown: worst-worker/median slowdown within a gang that
            raises an alert; ``None`` disables the rule.
    """

    name: str = "slo"
    deadline_s: float | None = None
    budget_usd: float | None = None
    stage_budgets_usd: tuple[tuple[int, float], ...] = ()
    warn_ratio: float = 0.85
    predictor_drift_threshold: float | None = 0.25
    straggler_slowdown: float | None = 3.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SLOError(f"spec name must be a non-empty string, got {self.name!r}")
        if isinstance(self.stage_budgets_usd, dict):
            pairs = tuple(sorted(self.stage_budgets_usd.items()))
            object.__setattr__(self, "stage_budgets_usd", pairs)
        else:
            object.__setattr__(
                self, "stage_budgets_usd", tuple(sorted(tuple(self.stage_budgets_usd)))
            )
        if self.deadline_s is None and self.budget_usd is None and not self.stage_budgets_usd:
            raise SLOError(
                "spec needs at least one objective: deadline_s, budget_usd, "
                "or stage_budgets_usd"
            )
        for key in _NUMBER_FIELDS:
            value = getattr(self, key)
            if (value is not None or key == "warn_ratio") and not is_finite(value):
                raise SLOError(f"{key} must be a finite number, got {value!r:.40}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SLOError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.budget_usd is not None and self.budget_usd <= 0:
            raise SLOError(f"budget_usd must be positive, got {self.budget_usd}")
        seen: set[int] = set()
        for stage, limit_usd in self.stage_budgets_usd:
            if not isinstance(stage, int) or stage < 0:
                raise SLOError(f"stage indices must be ints >= 0, got {stage!r}")
            if stage in seen:
                raise SLOError(f"duplicate stage sub-budget for stage {stage}")
            seen.add(stage)
            if not (is_finite(limit_usd) and limit_usd > 0):
                raise SLOError(
                    f"stage {stage} sub-budget must be a positive finite number, "
                    f"got {limit_usd!r:.40}"
                )
        if not 0.0 < self.warn_ratio < 1.0:
            raise SLOError(f"warn_ratio must be in (0, 1), got {self.warn_ratio}")
        if self.predictor_drift_threshold is not None and self.predictor_drift_threshold <= 0:
            raise SLOError(
                f"predictor_drift_threshold must be positive, "
                f"got {self.predictor_drift_threshold}"
            )
        if self.straggler_slowdown is not None and self.straggler_slowdown <= 1.0:
            raise SLOError(
                f"straggler_slowdown must be > 1, got {self.straggler_slowdown}"
            )

    # ------------------------------------------------------------------ export
    def to_payload(self) -> dict:
        """The ``repro-slo/v1`` JSON document."""
        return {
            "schema": SLO_SCHEMA,
            "name": self.name,
            "deadline_s": self.deadline_s,
            "budget_usd": self.budget_usd,
            "stage_budgets_usd": {
                str(stage): limit_usd for stage, limit_usd in self.stage_budgets_usd
            },
            "warn_ratio": self.warn_ratio,
            "predictor_drift_threshold": self.predictor_drift_threshold,
            "straggler_slowdown": self.straggler_slowdown,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "SLOSpec":
        if not isinstance(payload, dict):
            raise SLOError(f"spec document must be an object, got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema != SLO_SCHEMA:
            raise SLOError(f"expected schema {SLO_SCHEMA!r}, got {schema!r}")
        unknown = sorted(set(payload) - _PAYLOAD_KEYS)
        if unknown:
            raise SLOError(f"spec document has unknown key(s): {', '.join(unknown)}")
        raw_stages = payload.get("stage_budgets_usd") or {}
        if not isinstance(raw_stages, dict):
            raise SLOError(
                f"stage_budgets_usd must map stage index to USD, got {raw_stages!r:.40}"
            )
        stages = []
        for stage, limit in raw_stages.items():
            if not (str(stage).isdecimal() and is_finite(limit)):
                raise SLOError(
                    "stage_budgets_usd must map a stage index to a finite USD "
                    f"number, got {stage!r:.20}: {limit!r:.20}"
                )
            stages.append((int(stage), float(limit)))
        return cls(
            name=payload.get("name", "slo"),
            deadline_s=payload.get("deadline_s"),
            budget_usd=payload.get("budget_usd"),
            stage_budgets_usd=tuple(stages),
            warn_ratio=payload.get("warn_ratio", 0.85),
            predictor_drift_threshold=payload.get("predictor_drift_threshold", 0.25),
            straggler_slowdown=payload.get("straggler_slowdown", 3.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "SLOSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SLOError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path: str | Path) -> "SLOSpec":
        """Read a spec file; OSError propagates for missing files."""
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())
