"""Enumeration of the allocation space Θ = N x M x S (paper Eq. 1).

The raw space is huge (memory 128..10240 MB at 1 MB granularity, up to 3000
concurrent functions, several storage services). Like the paper's profiler
we enumerate a geometric grid over n and the practically relevant memory
steps, then filter by feasibility for the given workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.common.types import Allocation, StorageKind
from repro.common.validation import require_non_empty

DEFAULT_MEMORY_GRID: tuple[int, ...] = (
    512, 1024, 1769, 2048, 3072, 4096, 6144, 8192, 10240,
)
DEFAULT_FUNCTION_GRID: tuple[int, ...] = (
    1, 2, 4, 6, 8, 10, 15, 20, 30, 40, 50, 75, 100, 150, 200, 300,
)


@dataclass(frozen=True)
class AllocationSpace:
    """A finite grid over Θ.

    Attributes:
        function_counts: candidate n values.
        memory_grid: candidate m values (MB).
        storages: candidate external storage services.
    """

    function_counts: Sequence[int] = DEFAULT_FUNCTION_GRID
    memory_grid: Sequence[int] = DEFAULT_MEMORY_GRID
    storages: Sequence[StorageKind] = field(
        default_factory=lambda: tuple(StorageKind)
    )

    def __post_init__(self) -> None:
        require_non_empty(self.function_counts, "function_counts")
        require_non_empty(self.memory_grid, "memory_grid")
        require_non_empty(self.storages, "storages")
        # Allocation's own bounds, checked once for the whole grid.
        if min(self.function_counts) < 1 or min(self.memory_grid) < 128:
            raise ValidationError(
                "function_counts must be >= 1 and memory_grid >= 128 MB"
            )

    def __len__(self) -> int:
        return len(self.function_counts) * len(self.memory_grid) * len(self.storages)

    def enumerate(self) -> Iterator[Allocation]:
        """All grid points, unfiltered."""
        for s in self.storages:
            for n in self.function_counts:
                for m in self.memory_grid:
                    yield Allocation(n_functions=n, memory_mb=m, storage=s)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All grid points as flat ``(storage, n, m)`` columns, in
        :meth:`enumerate` order (storage is an object column)."""
        s, n, m = len(self.storages), len(self.function_counts), len(self.memory_grid)
        return (
            np.repeat(np.array(self.storages, dtype=object), n * m),
            np.tile(np.repeat(self.function_counts, m), s),
            np.tile(self.memory_grid, s * n),
        )

    def restrict_storage(self, *kinds: StorageKind) -> "AllocationSpace":
        """A copy limited to the given storage services (Fig. 16-18 pinning)."""
        return AllocationSpace(
            function_counts=self.function_counts,
            memory_grid=self.memory_grid,
            storages=tuple(kinds),
        )


def default_space(max_functions: int | None = None) -> AllocationSpace:
    """The default grid, optionally truncating the function-count axis."""
    if max_functions is None:
        return AllocationSpace()
    counts = tuple(n for n in DEFAULT_FUNCTION_GRID if n <= max_functions)
    return AllocationSpace(function_counts=counts or (max_functions,))
