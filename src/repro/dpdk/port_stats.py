"""Per-port statistics, mirroring ``rte_eth_stats``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class PortStats:
    """Counters a real NIC exposes; the benches report these.

    Attributes:
        ipackets: frames successfully received into mbufs.
        ibytes: bytes successfully received.
        imissed: frames dropped for lack of mbufs or ring space.
        ierrors: malformed frames rejected at classification.
        q_ipackets: per-queue receive counters.
    """

    ipackets: int = 0
    ibytes: int = 0
    imissed: int = 0
    ierrors: int = 0
    q_ipackets: Dict[int, int] = field(default_factory=dict)

    def record_rx(self, queue_id: int, frame_len: int) -> None:
        """Account one successfully queued frame."""
        self.record_rx_burst({queue_id: 1}, frame_len)

    def record_rx_burst(self, queue_frames: Dict[int, int], frame_bytes: int) -> None:
        """Account a burst's queued frames: per-queue counts (in the
        order each queue first received one) and their total bytes."""
        q_ipackets = self.q_ipackets
        for queue_id, frames in queue_frames.items():
            self.ipackets += frames
            q_ipackets[queue_id] = q_ipackets.get(queue_id, 0) + frames
        self.ibytes += frame_bytes

    def record_miss(self) -> None:
        """Account one frame dropped before reaching a queue."""
        self.imissed += 1

    def record_error(self) -> None:
        """Account one malformed frame."""
        self.ierrors += 1

    def queue_balance(self) -> List[float]:
        """Fraction of received packets per queue (ordered by queue id).

        The RSS-scaling bench uses this to show RSS spreads load
        evenly across queues.
        """
        if not self.ipackets:
            return []
        queues = sorted(self.q_ipackets)
        return [self.q_ipackets[q] / self.ipackets for q in queues]

    def reset(self) -> None:
        """Zero all counters (``rte_eth_stats_reset``)."""
        self.ipackets = 0
        self.ibytes = 0
        self.imissed = 0
        self.ierrors = 0
        self.q_ipackets.clear()
