"""Simulated multi-queue NIC port with hardware RSS classification.

A real NIC extracts the L3/L4 tuple in hardware, Toeplitz-hashes it,
picks an rx queue through the RETA, and DMAs the frame into an mbuf.
:class:`NicPort` does exactly that sequence in software, one burst at
a time: a single decode of each frame with the fast
:class:`~repro.net.parser.PacketParser` (whose result travels on the
mbuf, like the header offsets a DPDK driver leaves for the
application), the :class:`~repro.dpdk.rss.RssHasher`, an mbuf
allocation, and a bounded per-queue ring. Workers drain queues with
:meth:`RxQueue.rx_burst`, DPDK-style.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.dpdk.mbuf import MbufPool, MbufPoolExhausted
from repro.dpdk.port_stats import PortStats
from repro.dpdk.ring import Ring
from repro.dpdk.rss import RssHasher, SYMMETRIC_RSS_KEY
from repro.net.packet import Packet
from repro.net.parser import PacketParser, ParsedPacket, ParseError

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

DEFAULT_BURST_SIZE = 32


class RxQueue:
    """One receive queue: a bounded ring of mbufs plus its id."""

    def __init__(self, queue_id: int, capacity: int = 4096):
        self.queue_id = queue_id
        self.ring: Ring = Ring(capacity=capacity, name=f"rxq{queue_id}")

    def rx_burst(self, max_packets: int = DEFAULT_BURST_SIZE) -> list:
        """Poll up to *max_packets* mbufs off this queue."""
        return self.ring.dequeue_burst(max_packets)

    def __len__(self) -> int:
        return len(self.ring)


class NicPort:
    """A port with RSS spreading frames across ``num_queues`` rx queues.

    Args:
        num_queues: receive queue count (one worker core each in Ruru).
        rss_key: the Toeplitz key; defaults to the symmetric key so
            both flow directions share a queue.
        mbuf_pool: buffer pool; a default pool is created if omitted.
        queue_capacity: ring slots per queue.
        admission: optional overload controller; when set, frames pass
            its priority triage before allocation and a full ring may
            displace its newest payload frame for a handshake frame.
        tracer: optional :class:`repro.obs.trace.Tracer` for the
            sampled per-frame ``nic.decode`` spans.
    """

    def __init__(
        self,
        num_queues: int = 4,
        rss_key: bytes = SYMMETRIC_RSS_KEY,
        mbuf_pool: Optional[MbufPool] = None,
        queue_capacity: int = 4096,
        port_id: int = 0,
        admission=None,
        tracer=None,
    ):
        self.port_id = port_id
        self.hasher = RssHasher(key=rss_key, num_queues=num_queues)
        self.queues: List[RxQueue] = [
            RxQueue(i, capacity=queue_capacity) for i in range(num_queues)
        ]
        self.pool = mbuf_pool or MbufPool(size=max(8192, queue_capacity * num_queues))
        self.stats = PortStats()
        self.admission = admission
        self.parser = PacketParser()
        self.tracer = tracer
        #: Frames the admission controller rejected (a subset of
        #: ``stats.imissed``): policy sheds, not capacity drops.
        self.shed = 0
        self._bursts = 0

    @property
    def num_queues(self) -> int:
        return len(self.queues)

    # -- hardware-side classification -----------------------------------

    @staticmethod
    def _extract_tuple(data: bytes) -> Optional[Tuple[int, int, int, int, bool]]:
        """Hardware-style tuple extraction; None if the frame has no
        hashable TCP/UDP 4-tuple (such frames go to queue 0).

        Used for the frames the parser does not decode as IPv4 TCP:
        UDP, fragments, deep VLAN stacks, runts and IPv6 (whose
        extension headers it does not walk, so those hash to 0).
        """
        if len(data) < 14:
            return None
        ethertype = _U16.unpack_from(data, 12)[0]
        offset = 14
        while ethertype == 0x8100 and len(data) >= offset + 4:
            ethertype = _U16.unpack_from(data, offset + 2)[0]
            offset += 4
        if ethertype == 0x0800:  # IPv4
            if len(data) < offset + 20:
                return None
            ihl = (data[offset] & 0xF) * 4
            protocol = data[offset + 9]
            if protocol not in (6, 17) or len(data) < offset + ihl + 4:
                return None
            src = _U32.unpack_from(data, offset + 12)[0]
            dst = _U32.unpack_from(data, offset + 16)[0]
            sport = _U16.unpack_from(data, offset + ihl)[0]
            dport = _U16.unpack_from(data, offset + ihl + 2)[0]
            return src, dst, sport, dport, False
        if ethertype == 0x86DD:  # IPv6
            if len(data) < offset + 44:
                return None
            next_header = data[offset + 6]
            if next_header not in (6, 17):
                return None
            src = int.from_bytes(data[offset + 8:offset + 24], "big")
            dst = int.from_bytes(data[offset + 24:offset + 40], "big")
            sport = _U16.unpack_from(data, offset + 40)[0]
            dport = _U16.unpack_from(data, offset + 42)[0]
            return src, dst, sport, dport, True
        return None

    # -- rx path ----------------------------------------------------------

    def receive(self, packet: Packet) -> bool:
        """Admit one frame; False if it was dropped or shed."""
        return self.receive_burst((packet,)) == 1

    def receive_burst(self, packets: Sequence[Packet]) -> int:
        """Admit a burst of frames in order; returns how many were queued.

        The port's only admission loop. Each frame passes, in order:

        1. the admission controller's priority triage, when one is
           attached — shed frames never reach a buffer;
        2. an mbuf from the pool;
        3. one decode with :attr:`parser`, whose :class:`ParsedPacket`
           (or :class:`ParseError`) rides to the worker on the mbuf, so
           no worker ever parses. Parsed IPv4 frames are hashed from
           that decode; every other frame (parser rejects, IPv6) is
           hashed from :meth:`_extract_tuple`, so unhashable frames
           land on queue 0;
        4. the RSS-chosen ring. Under admission control a full ring may
           evict its newest payload frame for an incoming handshake
           frame.

        Pool exhaustion and full rings count as ``imissed``, as on
        hardware; frames the controller rejects (at triage or at a
        full ring) also count in :attr:`shed`, and the controller
        attributes them per class and stage.
        """
        stats = self.stats
        admission = self.admission
        hash_ipv4 = self.hasher.hash_ipv4_tuple
        reta = self.hasher.reta
        reta_mask = len(reta) - 1
        alloc = self.pool.alloc
        rings = [queue.ring for queue in self.queues]
        parse = self._burst_parser()
        klass = None
        queue_frames = {}
        queued_bytes = 0
        for packet in packets:
            data = packet.data
            timestamp_ns = packet.timestamp_ns
            if admission is not None:
                admitted, klass, data = admission.admit_frame(data)
                if not admitted:
                    stats.record_miss()
                    self.shed += 1
                    continue

            try:
                mbuf = alloc(data, timestamp_ns)
            except MbufPoolExhausted:
                stats.record_miss()
                continue

            try:
                decoded = parse(data, timestamp_ns)
            except ParseError as exc:
                decoded = exc
                rss_hash = self._hash_extracted(data)
            else:
                if decoded.is_ipv6:
                    rss_hash = self._hash_extracted(data)
                else:
                    rss_hash = hash_ipv4(
                        decoded.src_ip, decoded.dst_ip,
                        decoded.src_port, decoded.dst_port,
                    )
            queue_id = reta[rss_hash & reta_mask]
            mbuf.decoded = decoded
            mbuf.rss_hash = rss_hash
            mbuf.queue_id = queue_id

            ring = rings[queue_id]
            if not ring.try_enqueue(mbuf):
                if not self._displace_for(ring, klass):
                    mbuf.free()
                    stats.record_miss()
                    if admission is not None:
                        admission.record_ring_drop(klass)
                        self.shed += 1
                    continue
                ring.enqueue(mbuf)
            queue_frames[queue_id] = queue_frames.get(queue_id, 0) + 1
            queued_bytes += len(data)
        stats.record_rx_burst(queue_frames, queued_bytes)
        return sum(queue_frames.values())

    def _hash_extracted(self, data: bytes) -> int:
        """RSS hash from :meth:`_extract_tuple`; 0 when it finds none."""
        key = self._extract_tuple(data)
        return 0 if key is None else self.hasher.hash_tuple(*key)

    def _displace_for(self, ring: Ring, klass: Optional[str]) -> bool:
        """Under admission control, evict *ring*'s newest payload frame
        to make room for an incoming handshake frame; True if it did."""
        admission = self.admission
        if admission is None or not admission.should_displace(klass):
            return False
        victim = ring.displace_newest(admission.is_displaceable)
        if victim is None:
            return False
        victim.free()
        admission.record_ring_displacement()
        return True

    def _burst_parser(self):
        """This burst's decode function: :attr:`parser`'s ``parse``,
        wrapped in a ``nic.decode`` span per frame on every Nth burst
        when a tracer is attached (N = ``tracer.detail_sample``; by
        burst count, so traces stay deterministic)."""
        parse = self.parser.parse
        tracer = self.tracer
        if tracer is None or not tracer.detail_sample:
            return parse
        self._bursts += 1
        detail = tracer.detail_sample
        if self._bursts % detail != 1 % detail:
            return parse

        def traced_parse(data: bytes, timestamp_ns: int) -> ParsedPacket:
            with tracer.span("nic.decode"):
                return parse(data, timestamp_ns)

        return traced_parse

    def rx_burst(self, queue_id: int, max_packets: int = DEFAULT_BURST_SIZE) -> list:
        """Poll a queue (``rte_eth_rx_burst`` equivalent)."""
        return self.queues[queue_id].rx_burst(max_packets)

    def pending(self) -> int:
        """Total mbufs sitting in rx rings."""
        return sum(len(queue) for queue in self.queues)

    def rebalance(self, weights) -> None:
        """Rewrite the RETA with queue shares proportional to *weights*.

        The live-reconfiguration knob real NICs expose
        (``rte_eth_dev_rss_reta_update``). Note the documented cost:
        flows in mid-handshake when the table changes can land their
        remaining packets on a different queue and be lost to
        measurement — the ablation tests quantify this.
        """
        if len(weights) != self.num_queues:
            raise ValueError("need one weight per queue")
        if any(weight < 0 for weight in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        size = len(self.hasher.reta)
        total = float(sum(weights))
        # Largest-remainder apportionment keeps the table exact-size.
        shares = [weight / total * size for weight in weights]
        counts = [int(share) for share in shares]
        remainders = sorted(
            range(self.num_queues),
            key=lambda q: shares[q] - counts[q],
            reverse=True,
        )
        deficit = size - sum(counts)
        for queue in remainders[:deficit]:
            counts[queue] += 1
        # Interleave queues across the table rather than long runs.
        interleaved = []
        remaining = list(counts)
        while len(interleaved) < size:
            for queue in range(self.num_queues):
                if remaining[queue] > 0:
                    interleaved.append(queue)
                    remaining[queue] -= 1
        self.hasher.set_reta(interleaved)
