"""Packet buffer (mbuf) pool with DPDK-style accounting.

On real hardware the NIC drops frames when the mbuf pool is empty;
reproducing that pressure matters for the SYN-flood resilience bench,
where a flood can exhaust buffers faster than workers free them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.net.parser import ParsedPacket, ParseError


class MbufPoolExhausted(RuntimeError):
    """Raised by :meth:`MbufPool.alloc` when no buffers remain."""


@dataclass(slots=True)
class Mbuf:
    """One packet buffer: raw frame bytes plus rx metadata.

    Mirrors the fields of ``rte_mbuf`` that Ruru's fast path touches:
    the data, the RSS hash computed by the NIC, the rx timestamp, and
    the queue the frame arrived on. ``decoded`` is the NIC's one decode
    of the frame — the :class:`ParsedPacket`, or the
    :class:`ParseError` the parser raised — like the packet-type and
    header offsets a DPDK driver leaves in the mbuf for the worker.
    Slots keep a 65,536-buffer pool a few MB smaller.
    """

    data: bytes = field(repr=False, default=b"")
    rss_hash: int = 0
    timestamp_ns: int = 0
    queue_id: int = 0
    pool: Optional["MbufPool"] = field(default=None, repr=False, compare=False)
    decoded: Union[ParsedPacket, ParseError, None] = field(
        default=None, repr=False, compare=False
    )

    def free(self) -> None:
        """Return this buffer to its pool (no-op for pool-less mbufs)."""
        if self.pool is not None:
            self.pool.free(self)

    def __len__(self) -> int:
        return len(self.data)


class MbufPool:
    """A bounded pool of :class:`Mbuf` objects.

    Args:
        size: total number of buffers. DPDK pools are commonly sized
            as ``2^n - 1``; any positive size works here.
        name: label used in stats output.
    """

    def __init__(self, size: int = 8191, name: str = "mbuf_pool"):
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.size = size
        self.name = name
        self._free: List[Mbuf] = [Mbuf(pool=self) for _ in range(size)]
        self.alloc_count = 0
        self.free_count = 0
        self.exhausted_count = 0

    @property
    def available(self) -> int:
        """Buffers currently free."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Buffers currently allocated."""
        return self.size - len(self._free)

    def alloc(
        self, data: bytes, timestamp_ns: int = 0, rss_hash: int = 0, queue_id: int = 0
    ) -> Mbuf:
        """Take a buffer from the pool and fill it.

        Raises:
            MbufPoolExhausted: when the pool is empty (the caller —
                the NIC — counts this as an rx drop, ``imissed``).
        """
        if not self._free:
            self.exhausted_count += 1
            raise MbufPoolExhausted(self.name)
        mbuf = self._free.pop()
        mbuf.data = data
        mbuf.timestamp_ns = timestamp_ns
        mbuf.rss_hash = rss_hash
        mbuf.queue_id = queue_id
        self.alloc_count += 1
        return mbuf

    def free(self, mbuf: Mbuf) -> None:
        """Return *mbuf* to the pool."""
        self.free_bulk((mbuf,))

    def free_bulk(self, mbufs: Sequence[Mbuf]) -> None:
        """Return a burst of mbufs at once (``rte_pktmbuf_free_bulk``);
        each drops its data and the decode it carried."""
        if len(self._free) + len(mbufs) > self.size:
            raise ValueError("double free: pool already full")
        if any(mbuf.pool is not self for mbuf in mbufs):
            raise ValueError("mbuf does not belong to this pool")
        for mbuf in mbufs:
            mbuf.data = b""
            mbuf.decoded = None
        self._free.extend(mbufs)
        self.free_count += len(mbufs)

    def __repr__(self) -> str:
        return (
            f"MbufPool(name={self.name!r}, size={self.size}, "
            f"available={self.available})"
        )
