"""Declarative fault plans (schema ``repro-faults/v1``).

A :class:`FaultPlan` describes *what can go wrong* in one run: function
crashes (at invoke or mid-epoch), invocation timeouts, cold-start
failures, per-backend storage transients and throttling windows, and
permanent function loss. It carries no randomness of its own — every
probabilistic decision is drawn by :class:`repro.faults.injector.
FaultInjector` from ``stream_for`` streams keyed by (seed, scope, site),
so the same (plan, seed) pair replays the exact same fault sequence.

The empty plan is the identity: ``FaultPlan()`` injects nothing, and the
executors skip the fault paths entirely, keeping fault-free runs
byte-identical to runs without any plan at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ValidationError
from repro.common.jsontext import indented_json
from repro.common.types import StorageKind
from repro.common.validation import number_field, require_list, require_object

FAULTS_SCHEMA = "repro-faults/v1"

#: Wildcard storage key: a spec under this key applies to any backend
#: that has no exact entry of its own.
ANY_STORAGE = "*"

_STORAGE_KEYS = tuple(kind.value for kind in StorageKind) + (ANY_STORAGE,)


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class RetrySpec:
    """Bounded exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: attempts per operation before giving up (>= 1).
        base_backoff_s: sleep before the first retry.
        backoff_factor: multiplier per further retry.
        jitter: relative jitter width; the injector draws a deterministic
            factor in ``[1 - jitter, 1 + jitter]`` per retry site.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_s < 0:
            raise ValidationError("base_backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError("backoff_factor must be >= 1")
        _check_prob("jitter", self.jitter)

    def backoff_s(self, attempt: int) -> float:
        """Nominal (jitter-free) sleep before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return self.base_backoff_s * self.backoff_factor ** (attempt - 1)

    def to_payload(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_backoff_s": self.base_backoff_s,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RetrySpec":
        name = "fault plan 'retry'"
        return cls(
            max_attempts=int(number_field(payload, "max_attempts", name, 4)),
            base_backoff_s=number_field(payload, "base_backoff_s", name, 0.5),
            backoff_factor=number_field(payload, "backoff_factor", name, 2.0),
            jitter=number_field(payload, "jitter", name, 0.25),
        )


@dataclass(frozen=True, slots=True)
class ThrottleWindow:
    """A storage throttling interval on the simulated clock.

    While a sync/stage overlaps ``[start_s, start_s + duration_s)`` the
    overlapped portion of the transfer runs ``slowdown`` times slower.
    """

    start_s: float
    duration_s: float
    slowdown: float = 3.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValidationError("throttle start_s must be >= 0")
        if self.duration_s <= 0:
            raise ValidationError("throttle duration_s must be > 0")
        if self.slowdown < 1.0:
            raise ValidationError("throttle slowdown must be >= 1")

    def overlap_s(self, start_s: float, duration_s: float) -> float:
        """Seconds of ``[start_s, start_s + duration_s)`` inside the window."""
        lo = max(start_s, self.start_s)
        hi = min(start_s + duration_s, self.start_s + self.duration_s)
        return max(0.0, hi - lo)

    def to_payload(self) -> dict:
        return {
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "slowdown": self.slowdown,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ThrottleWindow":
        name = "throttle window"
        return cls(
            start_s=number_field(payload, "start_s", name),
            duration_s=number_field(payload, "duration_s", name),
            slowdown=number_field(payload, "slowdown", name, 3.0),
        )


@dataclass(frozen=True, slots=True)
class StorageFaultSpec:
    """Fault profile for one storage backend (or the ``*`` wildcard).

    Attributes:
        transient_prob: probability one epoch's synchronization hits a
            transient-error episode (5xx / connection reset).
        max_errors: consecutive failed attempts in one episode; must stay
            below the retry budget for the episode to be survivable.
        error_timeout_s: latency burned per failed attempt.
        throttle_windows: throttling intervals on the simulated clock.
    """

    transient_prob: float = 0.0
    max_errors: int = 2
    error_timeout_s: float = 0.5
    throttle_windows: tuple[ThrottleWindow, ...] = ()

    def __post_init__(self) -> None:
        _check_prob("transient_prob", self.transient_prob)
        if self.max_errors < 1:
            raise ValidationError("max_errors must be >= 1")
        if self.error_timeout_s < 0:
            raise ValidationError("error_timeout_s must be >= 0")

    @property
    def is_empty(self) -> bool:
        return self.transient_prob == 0.0 and not self.throttle_windows

    def to_payload(self) -> dict:
        return {
            "transient_prob": self.transient_prob,
            "max_errors": self.max_errors,
            "error_timeout_s": self.error_timeout_s,
            "throttle_windows": [w.to_payload() for w in self.throttle_windows],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StorageFaultSpec":
        name = "storage fault spec"
        windows = require_object(payload, name).get("throttle_windows", [])
        return cls(
            transient_prob=number_field(payload, "transient_prob", name, 0.0),
            max_errors=int(number_field(payload, "max_errors", name, 2)),
            error_timeout_s=number_field(payload, "error_timeout_s", name, 0.5),
            throttle_windows=tuple(
                ThrottleWindow.from_payload(w)
                for w in require_list(windows, f"{name} 'throttle_windows'")
            ),
        )


@dataclass(frozen=True, slots=True)
class PermanentLoss:
    """One function instance that dies for good at an epoch boundary.

    From ``epoch`` (1-based, matching the executor's epoch indices) on,
    the worker at ``rank`` never comes back under the current allocation;
    the scheduler must degrade to a different feasible allocation.
    """

    epoch: int
    rank: int = 0

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValidationError("permanent-loss epoch must be >= 1")
        if self.rank < 0:
            raise ValidationError("permanent-loss rank must be >= 0")

    def to_payload(self) -> dict:
        return {"epoch": self.epoch, "rank": self.rank}

    @classmethod
    def from_payload(cls, payload: dict) -> "PermanentLoss":
        name = "permanent loss"
        return cls(
            epoch=int(number_field(payload, "epoch", name)),
            rank=int(number_field(payload, "rank", name, 0)),
        )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Everything that can go wrong in one run, declaratively.

    Attributes:
        name: label carried into ledgers and reports.
        crash_prob: per-(epoch, function) crash probability.
        crash_mid_fraction: share of crashes that strike mid-epoch (the
            rest fail at invoke, before any useful work).
        invocation_timeout_s: per-function wall limit; ``None`` disables
            timeout enforcement. A worker whose attempt would exceed it is
            killed at the limit and speculatively re-executed.
        cold_start_failure_prob: probability a cold start fails and must
            be re-tried (each failure burns one cold-start window).
        storage: backend name (Table-1 catalog value or ``"*"``) →
            :class:`StorageFaultSpec`.
        permanent_loss: functions that die for good at epoch boundaries.
        retry: the bounded-backoff budget shared by all recovery paths.
    """

    name: str = "faults"
    crash_prob: float = 0.0
    crash_mid_fraction: float = 0.5
    invocation_timeout_s: float | None = None
    cold_start_failure_prob: float = 0.0
    storage: dict[str, StorageFaultSpec] = field(default_factory=dict)
    permanent_loss: tuple[PermanentLoss, ...] = ()
    retry: RetrySpec = field(default_factory=RetrySpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("fault plan needs a non-empty name")
        _check_prob("crash_prob", self.crash_prob)
        _check_prob("crash_mid_fraction", self.crash_mid_fraction)
        _check_prob("cold_start_failure_prob", self.cold_start_failure_prob)
        if self.invocation_timeout_s is not None and self.invocation_timeout_s <= 0:
            raise ValidationError("invocation_timeout_s must be > 0 (or None)")
        for key in self.storage:
            if key not in _STORAGE_KEYS:
                raise ValidationError(
                    f"unknown storage backend {key!r}; "
                    f"use one of {sorted(_STORAGE_KEYS)}"
                )

    @property
    def is_empty(self) -> bool:
        """True when this plan injects nothing at all."""
        return (
            self.crash_prob == 0.0
            and self.invocation_timeout_s is None
            and self.cold_start_failure_prob == 0.0
            and all(spec.is_empty for spec in self.storage.values())
            and not self.permanent_loss
        )

    def storage_spec(self, backend: str) -> StorageFaultSpec | None:
        """The spec for a backend, falling back to the ``*`` wildcard."""
        spec = self.storage.get(backend)
        if spec is None:
            spec = self.storage.get(ANY_STORAGE)
        return spec

    # ------------------------------------------------------------------ payload
    def to_payload(self) -> dict:
        return {
            "schema": FAULTS_SCHEMA,
            "name": self.name,
            "crash_prob": self.crash_prob,
            "crash_mid_fraction": self.crash_mid_fraction,
            "invocation_timeout_s": self.invocation_timeout_s,
            "cold_start_failure_prob": self.cold_start_failure_prob,
            "storage": {
                key: spec.to_payload()
                for key, spec in sorted(self.storage.items())
            },
            "permanent_loss": [p.to_payload() for p in self.permanent_loss],
            "retry": self.retry.to_payload(),
        }

    def to_json(self) -> str:
        return indented_json(self.to_payload()) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValidationError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != FAULTS_SCHEMA:
            raise ValidationError(
                f"expected schema {FAULTS_SCHEMA!r}, got {schema!r}"
            )
        name = "fault plan"
        timeout = payload.get("invocation_timeout_s")
        storage = require_object(payload.get("storage", {}), "fault plan 'storage'")
        losses = require_list(
            payload.get("permanent_loss", []), "fault plan 'permanent_loss'"
        )
        return cls(
            name=str(payload.get("name", "faults")),
            crash_prob=number_field(payload, "crash_prob", name, 0.0),
            crash_mid_fraction=number_field(payload, "crash_mid_fraction", name, 0.5),
            invocation_timeout_s=(
                None if timeout is None
                else number_field(payload, "invocation_timeout_s", name)
            ),
            cold_start_failure_prob=number_field(
                payload, "cold_start_failure_prob", name, 0.0
            ),
            storage={
                key: StorageFaultSpec.from_payload(spec)
                for key, spec in storage.items()
            },
            permanent_loss=tuple(PermanentLoss.from_payload(p) for p in losses),
            retry=RetrySpec.from_payload(payload.get("retry", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Parse a plan document written by :meth:`to_json`."""
        text = Path(path).read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"fault plan {path} is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)

    @classmethod
    def default_profile(cls) -> "FaultPlan":
        """The chaos-matrix profile: crashes at p=0.05 per epoch·function,
        occasional cold-start failures, one storage throttling window, and
        one permanent function loss partway into the run."""
        return cls(
            name="default-chaos",
            crash_prob=0.05,
            crash_mid_fraction=0.5,
            cold_start_failure_prob=0.05,
            storage={
                ANY_STORAGE: StorageFaultSpec(
                    transient_prob=0.05,
                    max_errors=2,
                    error_timeout_s=0.5,
                    throttle_windows=(
                        ThrottleWindow(start_s=60.0, duration_s=120.0, slowdown=2.0),
                    ),
                )
            },
            permanent_loss=(PermanentLoss(epoch=5, rank=0),),
            # Faster backoff than the RetrySpec default: the chaos profile
            # crashes some worker almost every epoch on large gangs, and a
            # 0.5 s floor on a ~2 s epoch would put most of the recovery
            # budget into sleeping rather than re-execution.
            retry=RetrySpec(base_backoff_s=0.1),
        )
