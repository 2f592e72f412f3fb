"""Fair-share work queue: per-tenant priority lanes under weighted
round-robin.

The service schedules at *chunk* granularity (a chunk is a handful of
campaign points), so fairness is continuous: a tenant submitting a
10 000-point sweep does not lock out a tenant submitting 10 points —
the dispatcher alternates between their queued chunks according to the
tenants' weights.

Scheduling policy, in order:

1. **fair share across tenants** — smooth weighted round-robin: every
   tenant with queued work accrues credit proportional to its weight
   each scheduling round; the highest-credit tenant is served and pays
   the round's total weight back.  Equal weights degenerate to strict
   round-robin; a weight-2 tenant is served twice as often as a
   weight-1 tenant, never exclusively.
2. **priority within a tenant** — three lanes (``high`` > ``normal`` >
   ``low``); a tenant's turn always serves its highest non-empty lane.
3. **FIFO within a lane** — submission order is preserved.

Backpressure is enforced in *points*, not chunks: :meth:`push` raises
:class:`QueueFull` once the queued-point total would exceed
``max_depth`` (the service maps this to HTTP 429 at submit time).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

#: Priority lanes, strongest first.
PRIORITIES = ("high", "normal", "low")


class QueueFull(Exception):
    """Queue depth bound hit; the submitter must back off."""

    def __init__(self, pending: int, limit: int, requested: int):
        super().__init__(
            f"queue full: {pending} points pending, limit {limit}, "
            f"requested {requested} more")
        self.pending = pending
        self.limit = limit
        self.requested = requested


class FairShareQueue:
    """See the module docstring for the scheduling policy."""

    def __init__(self, max_depth: Optional[int] = None,
                 weights: Optional[Dict[str, float]] = None,
                 default_weight: float = 1.0):
        self.max_depth = max_depth
        self.default_weight = float(default_weight)
        self.weights: Dict[str, float] = dict(weights or {})
        self._lanes: Dict[str, List[Deque]] = {}
        self._credits: Dict[str, float] = {}
        self._order: Dict[str, int] = {}  # first-seen tie-break
        self._pending_points = 0

    # -- introspection -------------------------------------------------------

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued *points* (not chunks), total or for one tenant."""
        if tenant is None:
            return self._pending_points
        lanes = self._lanes.get(tenant)
        if not lanes:
            return 0
        return sum(len(chunk.tasks)
                   for lane in lanes for chunk in lane)

    def chunk_count(self) -> int:
        return sum(len(lane)
                   for lanes in self._lanes.values() for lane in lanes)

    def __len__(self) -> int:
        return self.chunk_count()

    def has_capacity(self, points: int) -> bool:
        return (self.max_depth is None
                or self._pending_points + points <= self.max_depth)

    # -- mutation ------------------------------------------------------------

    def push(self, chunk, force: bool = False) -> None:
        """Enqueue one chunk (``chunk.tenant`` / ``chunk.priority`` /
        ``chunk.tasks`` are the scheduling attributes).

        ``force=True`` bypasses the depth bound — used for re-queues
        (lease expiry, retries): work already admitted must never be
        dropped by backpressure aimed at *new* submissions.
        """
        points = len(chunk.tasks)
        if not force and not self.has_capacity(points):
            raise QueueFull(self._pending_points,
                            self.max_depth or 0, points)
        tenant = chunk.tenant
        lanes = self._lanes.get(tenant)
        if lanes is None:
            lanes = [deque() for _ in PRIORITIES]
            self._lanes[tenant] = lanes
            self._credits.setdefault(tenant, 0.0)
            self._order.setdefault(tenant, len(self._order))
        try:
            lane = PRIORITIES.index(chunk.priority)
        except ValueError:
            raise ValueError(
                f"unknown priority {chunk.priority!r}; "
                f"expected one of {PRIORITIES}")
        lanes[lane].append(chunk)
        self._pending_points += points

    def pop(self):
        """Dequeue the next chunk under the fair-share policy; ``None``
        when empty."""
        active = [t for t, lanes in self._lanes.items()
                  if any(lanes)]
        if not active:
            return None
        round_weight = sum(self.weight(t) for t in active)
        for tenant in active:
            self._credits[tenant] += self.weight(tenant)
        # highest credit wins; first-seen order breaks exact ties so
        # equal-weight tenants alternate deterministically
        selected = max(
            active,
            key=lambda t: (self._credits[t], -self._order[t]))
        self._credits[selected] -= round_weight
        for lane in self._lanes[selected]:
            if lane:
                chunk = lane.popleft()
                self._pending_points -= len(chunk.tasks)
                return chunk
        raise AssertionError("active tenant had no queued chunk")

    def discard_job(self, job_id: str) -> int:
        """Drop all queued chunks of one job; returns points removed."""
        removed = 0
        for lanes in self._lanes.values():
            for lane in lanes:
                keep = deque()
                while lane:
                    chunk = lane.popleft()
                    if chunk.job_id == job_id:
                        removed += len(chunk.tasks)
                    else:
                        keep.append(chunk)
                lane.extend(keep)
        self._pending_points -= removed
        return removed
