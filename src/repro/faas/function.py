"""Function-instance lifecycle: the platform's warm pool.

Lambda keeps idle instances warm for a while after an invocation; a new
invocation reuses a warm instance (no cold start) when one exists, and
instances idle beyond the provider's TTL are reclaimed. This module tracks
instances per function group so the platform can charge cold starts only
for the instances that actually need them — including partial-warm epochs
after a scale-up (e.g. the adaptive scheduler growing n mid-job).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.telemetry import get_registry


@dataclass
class WarmPool:
    """Per-group warm instances with idle-TTL reclamation.

    Attributes:
        ttl_s: idle time after which an instance is reclaimed (AWS keeps
            instances for minutes to hours; default 900 s).
    """

    ttl_s: float = 900.0
    # group -> [last_used_at, count] batches, oldest first. Instances are
    # interchangeable apart from when they were last used, so a wave of n
    # released together is one batch, not n objects.
    _groups: dict[str, list[list]] = field(default_factory=dict)
    cold_starts: int = 0
    warm_reuses: int = 0
    expired: int = 0

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ValidationError(f"ttl_s must be positive, got {self.ttl_s}")
        registry = get_registry()
        self._m_hits = registry.counter(
            "repro_faas_warm_pool_hits_total",
            "Invocations served by a warm instance",
        )
        self._m_misses = registry.counter(
            "repro_faas_warm_pool_misses_total",
            "Invocations that needed a cold start",
        )
        self._m_evictions = registry.counter(
            "repro_faas_warm_pool_evictions_total",
            "Warm instances reclaimed after idling past the TTL",
        )
        self._m_prewarmed = registry.counter(
            "repro_faas_warm_pool_prewarmed_total",
            "Instances provisioned ahead of need (delayed restart)",
        )

    def _expire(self, now: float) -> None:
        # Batches are oldest first, so the expired ones are a prefix.
        for group, batches in list(self._groups.items()):
            k = 0
            while k < len(batches) and now - batches[k][0] > self.ttl_s:
                k += 1
            if not k:
                continue
            dropped = sum(count for _, count in batches[:k])
            self._m_evictions.inc(dropped)
            self.expired += dropped
            if k == len(batches):
                del self._groups[group]
            else:
                del batches[:k]

    def warm_count(self, group: str, now: float) -> int:
        """Currently-warm instances for a group."""
        self._expire(now)
        return sum(count for _, count in self._groups.get(group, ()))

    def acquire(self, group: str, n: int, now: float) -> tuple[int, int]:
        """Take ``n`` instances for an invocation wave.

        Returns ``(warm, cold)``: how many reused a warm instance and how
        many needed a cold start. Acquired instances leave the pool until
        :meth:`release`.
        """
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self._expire(now)
        batches = self._groups.get(group, [])
        # Reuse the most recently used instances (LIFO keeps the pool hot).
        need = n
        while need and batches:
            batch = batches[-1]
            if batch[1] <= need:
                need -= batch[1]
                batches.pop()
            else:
                batch[1] -= need
                need = 0
        if not batches:
            self._groups.pop(group, None)
        warm = n - need
        cold = need
        self.cold_starts += cold
        self.warm_reuses += warm
        if warm:
            self._m_hits.inc(warm)
        if cold:
            self._m_misses.inc(cold)
        return warm, cold

    def release(self, group: str, n: int, now: float) -> None:
        """Return ``n`` instances to the pool after an invocation wave."""
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        batches = self._groups.setdefault(group, [])
        # Keep the batches ordered by last use; the clock only moves
        # forward, so this is almost always an append or a merge.
        i = len(batches)
        while i and batches[i - 1][0] > now:
            i -= 1
        if i and batches[i - 1][0] == now:
            batches[i - 1][1] += n
        else:
            batches.insert(i, [now, n])

    def prewarm(self, group: str, n: int, now: float) -> None:
        """Provision ``n`` instances ahead of time (delayed restart)."""
        self._m_prewarmed.inc(n)
        self.release(group, n, now)

    def retire(self, group: str) -> int:
        """Terminate a group's instances; returns how many were dropped."""
        return sum(count for _, count in self._groups.pop(group, ()))

    def total_warm(self, now: float) -> int:
        """Instances warm at ``now`` across every group. A pure read: it
        evicts nothing, so observing the pool never moves an eviction."""
        return sum(
            count
            for batches in self._groups.values()
            for last_used, count in batches
            if now - last_used <= self.ttl_s
        )
