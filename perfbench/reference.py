"""Host-speed reference: a fixed piece of work timed between batches.

The benchmark runs on shared virtual machines whose speed moves by tens
of percent within seconds and swings further over minutes. Every timed
call into the system under test is followed, outside its timing, by
one *slice*: a frozen miniature handshake tracker run over the next
576 frames of a 73,728-frame synthetic capture. The slices see the
same host as the calls between them, so the ratio of the two does not
move with the host's speed. Like the system's, the slices' data is
spread over megabytes and mostly out of cache, so a host that is slow
at reaching memory slows both alike. Exactly one slice follows each
call: a slice that follows another runs warmer and faster, so a
number of slices that depended on the system's own timings would move
the reference with them.

A run reports its timings scaled to a host on which one slice takes
``NOMINAL_SLICE_NS``. A batch's *slowdown* is the mean time of the
slices near it over nominal (``local_slowdowns``); its duration, and
the latency of each record it carried, are divided by it. A pass's
slowdown is its batch time over the sum of those scaled durations; its
rates are multiplied by it and its CPU time divided by it. Neither the
slice's code nor its input depends on the repository's sources or on
the seed, so a change to the system moves the scaled figures exactly
as it moves the raw ones.
"""

from __future__ import annotations

import struct
import time
from typing import List, NamedTuple

#: About the median slice time on the 2-vCPU KVM guest the bounds were set on
#: (Xeon, family 6 model 207). Only ratios to it are reported, so the
#: constant sets the scale, not the spread.
NOMINAL_SLICE_NS = 1_000_000

_FLOWS = 8192
_EXCHANGES = 3

#: Frames one slice tracks.
SLICE_FRAMES = 576

#: A batch's slowdown is the mean of the slices up to this many batches
#: either side of it: local enough to follow the host through a pass,
#: wide enough that one slice's jitter does not set it.
LOCAL_RADIUS = 2

_ETH = struct.Struct("!6s6sH")
_IP = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_ETHERTYPE = struct.Struct("!H")
_TCP_HEAD = struct.Struct("!HHIIBB")

SYN, ACK = 0x02, 0x10


class Frame(NamedTuple):
    data: bytes
    timestamp_ns: int


def _frame(src: bytes, dst: bytes, sport: int, dport: int, seq: int,
           ack: int, flags: int, payload: int, at: int) -> Frame:
    ip = _IP.pack(0x45, 0, 40 + payload, 0, 0, 64, 6, 0, src, dst)
    tcp = _TCP.pack(sport, dport, seq, ack, 5 << 4, flags, 65535, 0, 0)
    head = _ETH.pack(b"\x02" * 6, b"\x04" * 6, 0x0800)
    return Frame(head + ip + tcp + b"\x00" * payload, at)


def frames() -> List[Frame]:
    """Overlapping flows, one every 250 µs: handshake, then three data
    exchanges whose ACKs the tracker must pass over (73,728 frames)."""
    out = []
    for flow in range(_FLOWS):
        client = bytes((10, 0, flow >> 8, flow & 0xFF))
        server = bytes((203, 0, 113, flow % 251))
        sport, dport = 32768 + flow * 37 % 28000, 443
        isn, server_isn = flow * 2654435761 & 0xFFFFFFFF, flow * 40503 & 0xFFFFFFFF
        at = flow * 250_000
        external, internal = 20_000_000 + flow * 9_973, 300_000 + flow * 1_009
        out.append(_frame(client, server, sport, dport, isn, 0, SYN, 0, at))
        at += external
        out.append(_frame(server, client, dport, sport, server_isn, isn + 1,
                          SYN | ACK, 0, at))
        at += internal
        out.append(_frame(client, server, sport, dport, isn + 1, server_isn + 1,
                          ACK, 0, at))
        for exchange in range(_EXCHANGES):
            at += 1_000_000
            out.append(_frame(client, server, sport, dport, isn + 1 + exchange * 100,
                              server_isn + 1, ACK, 100, at))
            at += external
            out.append(_frame(server, client, dport, sport, server_isn + 1,
                              isn + 1 + (exchange + 1) * 100, ACK, 0, at))
    out.sort(key=lambda frame: frame.timestamp_ns)
    return out


class _Half:
    __slots__ = ("syn_ns", "synack_ns", "isn")

    def __init__(self, syn_ns: int, isn: int):
        self.syn_ns = syn_ns
        self.synack_ns = 0
        self.isn = isn


def track(capture: List[Frame], table: dict) -> List[str]:
    """Parse every frame, pair SYN / SYN-ACK / ACK by 4-tuple in
    *table*, and format one record line per completed handshake."""
    records = []
    ethertype, ip, tcp = _ETHERTYPE.unpack_from, _IP.unpack_from, _TCP_HEAD.unpack_from
    for frame in capture:
        data = frame.data
        if ethertype(data, 12)[0] != 0x0800:
            continue
        version_ihl, _, _, _, _, _, proto, _, src, dst = ip(data, 14)
        if proto != 6:
            continue
        sport, dport, seq, ack, _, flags = tcp(data, 14 + (version_ihl & 15) * 4)
        at = frame.timestamp_ns
        if flags & SYN and not flags & ACK:
            table[(src, dst, sport, dport)] = _Half(at, seq)
        elif flags & SYN:
            half = table.get((dst, src, dport, sport))
            if half is not None and ack == (half.isn + 1) & 0xFFFFFFFF:
                half.synack_ns = at
        elif flags & ACK:
            half = table.pop((src, dst, sport, dport), None)
            if half is not None and half.synack_ns:
                records.append("%s,%s,%d,%d,%d" % (
                    src.hex(), dst.hex(), at - half.synack_ns,
                    half.synack_ns - half.syn_ns, at,
                ))
    return records


class Reference:
    """Runs slices and keeps their wall and CPU time.

    ``paused_ns`` is the wall time spent in slices so far: a timestamp
    minus it is on the system's own clock, with the slices cut out.
    """

    def __init__(self):
        self.capture = frames()
        self.table: dict = {}
        self.position = 0
        self.slices = 0
        self.paused_ns = 0
        self.cpu_ns = 0

    def slice(self) -> int:
        """Run one slice; returns its wall time in nanoseconds."""
        start = self.position
        if start + SLICE_FRAMES > len(self.capture):
            start = 0
            self.table.clear()
        self.position = start + SLICE_FRAMES
        cpu = time.process_time_ns()
        started = time.perf_counter_ns()
        track(self.capture[start:self.position], self.table)
        elapsed = time.perf_counter_ns() - started
        self.paused_ns += elapsed
        self.cpu_ns += time.process_time_ns() - cpu
        self.slices += 1
        return elapsed

    def mark(self):
        """State to measure a stretch of slices from (see ``slowdown``)."""
        return self.slices, self.paused_ns, self.cpu_ns

    def slowdown(self, mark) -> float:
        """Mean slice time since *mark* over ``NOMINAL_SLICE_NS``."""
        slices, paused_ns, _ = mark
        count = self.slices - slices
        if count <= 0:
            raise ValueError("no reference slice since the mark")
        return (self.paused_ns - paused_ns) / count / NOMINAL_SLICE_NS

    def cpu_since(self, mark) -> int:
        return self.cpu_ns - mark[2]


def local_slowdowns(slice_ns: List[int], radius: int = LOCAL_RADIUS) -> List[float]:
    """Per batch, the mean time of the slices within *radius* batches
    of it (one slice follows each batch) over ``NOMINAL_SLICE_NS``."""
    slowdowns = []
    for index in range(len(slice_ns)):
        near = slice_ns[max(0, index - radius):index + radius + 1]
        slowdowns.append(sum(near) / len(near) / NOMINAL_SLICE_NS)
    return slowdowns
