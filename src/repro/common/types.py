"""Core value types shared by every subsystem.

The central object is :class:`Allocation` — the paper's θ = (n, m, s): the
number of functions, the per-function memory size in MB, and the external
storage service used for parameter synchronization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ValidationError


class PricingPattern(enum.Enum):
    """How a storage service bills (paper Table I / Eq. 5)."""

    REQUEST = "request"  # charged per data request (S3, DynamoDB)
    RUNTIME = "runtime"  # charged per provisioned minute (ElastiCache, VM-PS)


class StorageKind(enum.Enum):
    """The external storage services considered by the paper (Table I)."""

    S3 = "s3"
    DYNAMODB = "dynamodb"
    ELASTICACHE = "elasticache"
    VMPS = "vmps"

    @property
    def is_passive(self) -> bool:
        """True for storages with no compute capacity (paper "stateless").

        Passive storages cannot aggregate gradients locally, so functions
        re-pull the whole model: the (3n-2) term in Eq. (3). VM-PS aggregates
        on the VM: the (2n-2) term.
        """
        return self is not StorageKind.VMPS

    @property
    def short(self) -> str:
        """One-letter label used in the paper's Fig. 18 (D, S, E, V)."""
        return {"s3": "S", "dynamodb": "D", "elasticache": "E", "vmps": "V"}[self.value]


@dataclass(frozen=True, slots=True)
class Allocation:
    """A resource allocation θ = (n, m, s) for one epoch.

    Attributes:
        n_functions: number of concurrently provisioned functions (workers).
        memory_mb: memory size of each function in MB (Lambda grants CPU
            proportionally to memory).
        storage: external storage service used for parameter synchronization.
    """

    n_functions: int
    memory_mb: int
    storage: StorageKind

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise ValidationError(f"n_functions must be >= 1, got {self.n_functions}")
        if self.memory_mb < 128:
            raise ValidationError(f"memory_mb must be >= 128, got {self.memory_mb}")
        if not isinstance(self.storage, StorageKind):
            raise ValidationError(f"storage must be a StorageKind, got {self.storage!r}")

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``10fn/1769MB/s3``."""
        return f"{self.n_functions}fn/{self.memory_mb}MB/{self.storage.value}"

    @classmethod
    def parse(cls, text: str) -> "Allocation":
        """Inverse of :meth:`describe` — used to recover θ from trace spans.

        Group labels carry a ``#g<generation>`` suffix; it is ignored.
        """
        body = text.split("#", 1)[0]
        parts = body.split("/")
        if len(parts) != 3 or not parts[0].endswith("fn") or not parts[1].endswith("MB"):
            raise ValidationError(f"cannot parse allocation from {text!r}")
        try:
            n = int(parts[0][:-2])
            memory = int(parts[1][:-2])
            storage = StorageKind(parts[2])
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"cannot parse allocation from {text!r}") from exc
        return cls(n, memory, storage)


@dataclass(frozen=True, slots=True)
class EpochTimeBreakdown:
    """Per-epoch execution time decomposition t'(θ) (paper Eq. 2)."""

    load_s: float
    compute_s: float
    sync_s: float

    @property
    def total_s(self) -> float:
        return self.load_s + self.compute_s + self.sync_s

    def scaled(self, factor: float) -> "EpochTimeBreakdown":
        """All components multiplied by ``factor`` (e.g. partial epochs)."""
        return EpochTimeBreakdown(
            self.load_s * factor, self.compute_s * factor, self.sync_s * factor
        )


@dataclass(frozen=True, slots=True)
class EpochCostBreakdown:
    """Per-epoch monetary cost decomposition c'(θ) (paper Eq. 4-5)."""

    invocation_usd: float
    compute_usd: float
    storage_usd: float

    @property
    def total_usd(self) -> float:
        return self.invocation_usd + self.compute_usd + self.storage_usd


@dataclass(slots=True)
class EpochRecord:
    """One executed epoch as observed by the metering layer."""

    index: int
    allocation: Allocation
    time: EpochTimeBreakdown
    cost: EpochCostBreakdown
    loss: float
    scheduling_overhead_s: float = 0.0
    restarted: bool = False
    # Delayed-restart startup overlapped with this (running) epoch — the
    # part of the switch Fig. 8 hides off the critical path. Not included
    # in scheduling_overhead_s, which is the *visible* overhead only.
    hidden_restart_overlap_s: float = 0.0
    # The critical-path component outside t'(θ): the cold-start window paid
    # by this epoch's gang (zero when warm). ``time.total_s`` deliberately
    # excludes it so it stays comparable to the analytical Eq. (2) estimate.
    cold_start_s: float = 0.0
    # Per-worker body durations (cold start + load + jittered compute), in
    # rank order — the straggler detector's input.
    worker_durations_s: tuple[float, ...] = ()

    @property
    def wall_s(self) -> float:
        """Critical-path wall time of this epoch (incl. cold start)."""
        return self.cold_start_s + self.time.total_s


@dataclass(slots=True)
class JobResult:
    """Outcome of a full training or tuning job."""

    jct_s: float
    cost_usd: float
    epochs: list[EpochRecord] = field(default_factory=list)
    converged: bool = True
    final_loss: float = float("nan")
    scheduling_overhead_s: float = 0.0
    n_restarts: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def comm_overhead_s(self) -> float:
        """Total time spent in parameter synchronization (Fig. 12 hatch)."""
        return sum(e.time.sync_s for e in self.epochs)

    @property
    def storage_cost_usd(self) -> float:
        """Total storage cost (Fig. 13 hatch)."""
        return sum(e.cost.storage_usd for e in self.epochs)
