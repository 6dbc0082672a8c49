"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, wrong type, etc.)."""


class InfeasibleAllocationError(ReproError):
    """A resource allocation violates a hard platform or storage limit.

    Examples: model too large for DynamoDB's 400 KB object limit, memory
    below the model's working-set requirement, or concurrency above the
    account limit.
    """


class ConstraintError(ReproError):
    """No plan satisfies the user's budget/QoS constraint."""


class StorageCapacityError(ReproError):
    """An object pushed to a storage service exceeds its object-size limit."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class PredictionError(ReproError):
    """The online/offline predictor cannot produce an estimate yet."""


class SLOError(ReproError):
    """An SLO spec is invalid, or an SLO evaluation cannot proceed."""


class FaultError(ReproError):
    """An injected fault surfaced past the resilience layer.

    Carries where (``scope``: "train"/"tune"/"workflow") and when
    (``t_s``: the emitter's simulated-time clock) the fault escaped, so
    handlers can account the lost time without re-deriving context.
    """

    def __init__(
        self, message: str, *, scope: str = "", t_s: float | None = None
    ) -> None:
        super().__init__(message)
        self.scope = scope
        self.t_s = t_s

    def __str__(self) -> str:
        base = super().__str__()
        ctx = []
        if self.scope:
            ctx.append(f"scope={self.scope}")
        if self.t_s is not None:
            ctx.append(f"t={self.t_s:.3f}s")
        return f"{base} [{', '.join(ctx)}]" if ctx else base


class RetryExhaustedError(FaultError):
    """A bounded retry loop ran out of attempts without succeeding."""


class CheckpointError(FaultError):
    """Checkpoint save/restore failed, or the restore budget is exhausted."""
