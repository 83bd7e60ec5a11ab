"""Bounded ring buffers for queue↔worker handoff.

Models ``rte_ring``: fixed capacity, burst enqueue/dequeue, and
watermark stats. Overflow behaviour is explicit — a full ring rejects
the burst remainder and the producer counts drops, exactly the
pressure signal the RSS-scaling bench measures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, Iterable, List, Optional, TypeVar

T = TypeVar("T")


class RingFull(RuntimeError):
    """Raised by :meth:`Ring.enqueue` when the ring is at capacity."""


class RingEmpty(RuntimeError):
    """Raised by :meth:`Ring.dequeue` when the ring is empty."""


class Ring(Generic[T]):
    """A bounded FIFO with burst operations and occupancy stats."""

    def __init__(self, capacity: int = 1024, name: str = "ring"):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.drops = 0
        self.displaced = 0
        self.high_watermark = 0
        self._peak = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def free_space(self) -> int:
        """Slots remaining."""
        return self.capacity - len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def enqueue(self, item: T) -> None:
        """Add one item.

        Raises:
            RingFull: at capacity; the drop is counted.
        """
        if not self.try_enqueue(item):
            self.drops += 1
            raise RingFull(self.name)

    def try_enqueue(self, item: T) -> bool:
        """Add one item if there is room; False (nothing counted) if not.

        The producer decides what a full ring costs — the NIC, for one,
        may displace a queued frame and retry.
        """
        items = self._items
        depth = len(items)
        if depth >= self.capacity:
            return False
        items.append(item)
        self.enqueued += 1
        depth += 1
        # The batch peak never exceeds the all-time high watermark.
        if depth > self._peak:
            self._peak = depth
            if depth > self.high_watermark:
                self.high_watermark = depth
        return True

    def enqueue_burst(self, items: Iterable[T]) -> int:
        """Add as many items as fit; returns how many were accepted.

        Items beyond capacity are dropped and counted, mirroring
        ``rte_ring_enqueue_burst`` semantics.
        """
        accepted = 0
        for item in items:
            if len(self._items) >= self.capacity:
                self.drops += 1
                continue
            self._items.append(item)
            self.enqueued += 1
            accepted += 1
        if len(self._items) > self.high_watermark:
            self.high_watermark = len(self._items)
        if len(self._items) > self._peak:
            self._peak = len(self._items)
        return accepted

    def take_peak(self) -> int:
        """Peak occupancy since the last call; resets to current depth.

        The pipeline drains rings to empty at batch boundaries, so an
        instantaneous read is useless as a pressure signal — overload
        sensors read the within-batch peak instead.
        """
        peak = max(self._peak, len(self._items))
        self._peak = len(self._items)
        return peak

    def displace_newest(self, predicate: Callable[[T], bool]) -> Optional[T]:
        """Remove and return the newest queued item matching *predicate*.

        Priority admission under overload: a full ring can evict its
        newest low-priority item to make room for a high-priority one
        (newest, because the oldest is closest to being served).
        Returns None if nothing matches; the caller owns the victim.
        """
        items = self._items
        for index in range(len(items) - 1, -1, -1):
            if predicate(items[index]):
                victim = items[index]
                del items[index]
                self.displaced += 1
                return victim
        return None

    def dequeue(self) -> T:
        """Remove and return one item.

        Raises:
            RingEmpty: nothing queued.
        """
        if not self._items:
            raise RingEmpty(self.name)
        self.dequeued += 1
        return self._items.popleft()

    def dequeue_burst(self, max_items: int) -> List[T]:
        """Remove up to *max_items*; empty list when nothing is queued."""
        if max_items < 0:
            raise ValueError("burst size cannot be negative")
        count = min(max_items, len(self._items))
        burst = [self._items.popleft() for _ in range(count)]
        self.dequeued += count
        return burst

    def __repr__(self) -> str:
        return (
            f"Ring(name={self.name!r}, capacity={self.capacity}, "
            f"occupancy={len(self._items)}, drops={self.drops})"
        )
