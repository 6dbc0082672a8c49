"""Recovery mechanisms: epoch-boundary checkpoints and graceful degradation.

The training executor checkpoints at every epoch boundary (model state
lives in external storage already, so a checkpoint is free — restoring it
is what costs: one model transfer from the allocation's storage). A
failed epoch therefore re-runs only itself, never completed work.

On *permanent* function loss the current allocation is no longer viable;
:func:`select_degraded_allocation` re-runs Algorithm 2's greedy selection
over the surviving Pareto points so the job finishes on a feasible
allocation instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CheckpointError, ConstraintError
from repro.common.types import Allocation, StorageKind
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.training.adaptive_scheduler import select_best_allocation


def restore_overhead_s(
    model_mb: float,
    storage: StorageKind,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> float:
    """Simulated cost of restoring the last checkpoint: one model
    transfer from the allocation's storage service (Eq. 3 constants)."""
    cfg = platform.storage_config(storage)
    return cfg.latency_s + model_mb / cfg.bandwidth_mb_s


@dataclass
class CheckpointStore:
    """Tracks the last completed epoch and the restores it paid for.

    Attributes:
        max_restores: job-level bound on checkpoint restores; exceeding it
            raises :class:`CheckpointError` instead of looping forever.
    """

    max_restores: int = 8
    last_epoch: int = 0
    n_restores: int = 0
    restore_overhead_total_s: float = 0.0

    def save(self, epoch: int) -> None:
        """Mark ``epoch`` completed (its state is durable in storage)."""
        self.last_epoch = epoch

    def restore(self, epoch: int, overhead_s: float, *, scope: str = "",
                t_s: float | None = None) -> float:
        """Account one restore; returns the overhead to add to the JCT."""
        if self.n_restores >= self.max_restores:
            raise CheckpointError(
                f"restore budget exhausted after {self.n_restores} restores "
                f"(failing epoch {epoch})",
                scope=scope, t_s=t_s,
            )
        self.n_restores += 1
        self.restore_overhead_total_s += overhead_s
        return overhead_s

def select_degraded_allocation(
    candidates: list,
    excluded: set[Allocation],
    objective,
    remaining_epochs: float,
    budget_usd: float | None = None,
    qos_s: float | None = None,
):
    """Re-select from the Pareto boundary minus the lost allocations.

    Raises :class:`ConstraintError` when every candidate is excluded —
    the caller turns that into a surfaced :class:`FaultError`.
    """
    surviving = [p for p in candidates if p.allocation not in excluded]
    if not surviving:
        raise ConstraintError(
            "no surviving allocation after permanent function loss"
        )
    return select_best_allocation(
        surviving, objective, remaining_epochs,
        budget_usd=budget_usd, qos_s=qos_s,
    )
