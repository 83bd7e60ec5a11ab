"""The one-decode fast path against the paths it replaced (hypothesis).

* the parser's single-unpack IPv4 branch equals its general path;
* the RSS hash and queue ``NicPort.receive_burst`` takes from the decode
  equal ``_extract_tuple`` + ``hash_tuple`` and the bit-serial
  ``toeplitz_hash`` oracle;
* burst admission leaves every NIC, ring, pool and overload counter
  where per-frame admission (the original ``receive`` loop, kept here
  as the reference) leaves it;
* the SYN-flood observer's direct same-window counts equal counting
  every packet through ``WindowedRate.add`` on both counters.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anomaly.syn_flood import SynFloodDetector
from repro.dpdk.mbuf import MbufPool, MbufPoolExhausted
from repro.dpdk.nic import NicPort
from repro.dpdk.rss import SYMMETRIC_RSS_KEY, toeplitz_hash
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, EthernetFrame
from repro.net.ipv4 import PROTO_UDP, IPv4Header
from repro.net.ipv6 import EXT_DEST_OPTS, EXT_HOP_BY_HOP, EXT_ROUTING, IPv6Header
from repro.net.packet import Packet, build_tcp_packet
from repro.net.parser import PacketParser, ParsedPacket, ParseError
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN, TcpOption
from repro.net.udp import UdpHeader
from repro.overload import OverloadController
from repro.overload.controller import LEVEL_NAMES

ipv4_ints = st.integers(min_value=0, max_value=(1 << 32) - 1)
ipv6_ints = st.integers(min_value=0, max_value=(1 << 128) - 1)
ports = st.integers(min_value=0, max_value=65535)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
flags = st.integers(min_value=0, max_value=0xFF)

_ETH = 14  # untagged Ethernet header length
_VLAN_TAG = b"\x81\x00\x00\x07"


def _decode(parse, data, timestamp_ns=1234):
    """A parse outcome comparable across paths: the packet or the reason."""
    try:
        return parse(data, timestamp_ns)
    except ParseError as exc:
        return ("error", exc.reason)


def _carried(decoded):
    """The decode an mbuf carries, in :func:`_decode`'s form."""
    if isinstance(decoded, ParseError):
        return ("error", decoded.reason)
    return decoded


def _set(data: bytes, offset: int, value: bytes) -> bytes:
    if offset + len(value) > len(data):
        return data
    return data[:offset] + value + data[offset + len(value):]


def _with_vlan_tags(data: bytes, tags: int) -> bytes:
    return data[:12] + _VLAN_TAG * tags + data[12:]


@st.composite
def ipv4_tcp_frames(draw):
    """IPv4/TCP frames with mutated IHL, total length, fragment bits,
    data offset and length; sometimes VLAN-tagged or not TCP at all."""
    options = draw(st.sampled_from([[], [TcpOption.timestamp(1, 2)]]))
    data = build_tcp_packet(
        draw(ipv4_ints), draw(ipv4_ints), draw(ports), draw(ports), draw(flags),
        seq=draw(u32), ack=draw(u32),
        payload=draw(st.binary(max_size=24)),
        options=options,
    ).data
    # One or two header fields at a time, so each edge meets an
    # otherwise valid frame often.
    for field in draw(st.lists(st.sampled_from(
        ["none", "ihl", "total_length", "fragment", "protocol", "data_offset",
         "truncate", "vlan"]
    ), min_size=1, max_size=2, unique=True)):
        if field == "none":
            continue
        elif field == "ihl":
            data = _set(data, _ETH, bytes([draw(st.sampled_from([0x44, 0x46, 0x4F, 0x65]))]))
        elif field == "total_length":
            data = _set(data, _ETH + 2, struct.pack("!H", draw(st.integers(0, 120))))
        elif field == "fragment":
            data = _set(data, _ETH + 6, struct.pack(
                "!H", draw(st.sampled_from([0x4000, 0x2000, 0x0001, 0x1FFF, 0x8000]))
            ))
        elif field == "protocol":
            data = _set(data, _ETH + 9, bytes([draw(st.sampled_from([17, 1, 0]))]))
        elif field == "data_offset":
            data = _set(data, _ETH + 20 + 12, bytes([draw(st.integers(0, 15)) << 4]))
        elif field == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        else:
            data = _with_vlan_tags(data, draw(st.integers(1, 3)))
    return data


def _udp_frame(src, dst, sport, dport, payload=b"q"):
    segment = UdpHeader(src_port=sport, dst_port=dport, payload=payload).pack()
    ip = IPv4Header(src=src, dst=dst, protocol=PROTO_UDP, payload=segment).pack()
    return EthernetFrame(ethertype=ETHERTYPE_IPV4, payload=ip).pack()


def _ipv6_frame(src, dst, sport, dport, tcp_flags, extensions):
    segment = build_tcp_packet(
        1, 2, sport, dport, tcp_flags, compute_checksum=False
    ).data[_ETH + 20:]
    payload, next_header = segment, 6
    for ext in reversed(extensions):
        payload = bytes([next_header, 0]) + b"\x00" * 6 + payload
        next_header = ext
    ip = IPv6Header(src=src, dst=dst, next_header=next_header, payload=payload).pack()
    return EthernetFrame(ethertype=ETHERTYPE_IPV6, payload=ip).pack()


@st.composite
def tap_frames(draw):
    """What a tap sees: TCP (mutated as above), UDP, IPv4 fragments,
    3-deep VLAN stacks, runts, and IPv6 with extension headers."""
    kind = draw(st.sampled_from(
        ["tcp", "udp", "fragment", "vlan3", "runt", "ipv6", "ipv6-ext"]
    ))
    if kind == "tcp":
        return draw(ipv4_tcp_frames())
    if kind == "udp":
        return _udp_frame(draw(ipv4_ints), draw(ipv4_ints), draw(ports), draw(ports))
    if kind == "fragment":
        data = build_tcp_packet(
            draw(ipv4_ints), draw(ipv4_ints), draw(ports), draw(ports), TCP_FLAG_SYN
        ).data
        return _set(data, _ETH + 6, struct.pack("!H", draw(st.sampled_from([0x2000, 0x00B9]))))
    if kind == "vlan3":
        data = build_tcp_packet(
            draw(ipv4_ints), draw(ipv4_ints), draw(ports), draw(ports), TCP_FLAG_ACK
        ).data
        return _with_vlan_tags(data, 3)
    if kind == "runt":
        return draw(st.binary(max_size=60))
    extensions = [] if kind == "ipv6" else draw(st.lists(
        st.sampled_from([EXT_HOP_BY_HOP, EXT_ROUTING, EXT_DEST_OPTS]),
        min_size=1, max_size=3,
    ))
    return _ipv6_frame(
        draw(ipv6_ints), draw(ipv6_ints), draw(ports), draw(ports), draw(flags),
        extensions,
    )


def _edge_frames():
    """One frame per fast-branch boundary, each otherwise valid."""
    base = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_ACK, payload=b"abcd").data
    timestamped = build_tcp_packet(
        1, 2, 3, 4, TCP_FLAG_ACK, options=[TcpOption.timestamp(5, 6)]
    ).data
    return [
        base,
        timestamped,
        _set(base, _ETH + 6, struct.pack("!H", 0x2000)),  # more fragments
        _set(base, _ETH + 6, struct.pack("!H", 0x0001)),  # fragment offset
        _set(base, _ETH + 6, struct.pack("!H", 0x8000)),  # reserved bit only
        _set(base, _ETH, b"\x46"),  # IHL 6
        _set(base, _ETH, b"\x44"),  # IHL 4
        _set(base, _ETH, b"\x65"),  # version 6 in an IPv4 ethertype
        _set(base, _ETH + 9, b"\x11"),  # UDP
        _set(base, _ETH + 2, struct.pack("!H", 39)),  # total length < headers
        _set(base, _ETH + 2, struct.pack("!H", 42)),  # total length cuts payload
        _set(base, _ETH + 32, b"\x40"),  # data offset 4
        _set(base, _ETH + 32, b"\x60"),  # data offset 6, past the segment
        base[:54],
        base[:53],
        _with_vlan_tags(base, 1),
        _with_vlan_tags(base, 3),
    ]


class TestParseFastBranch:
    @pytest.mark.parametrize("timestamps", [False, True])
    @pytest.mark.parametrize("data", _edge_frames())
    def test_fast_branch_equals_general_path_on_edges(self, data, timestamps):
        parser = PacketParser(extract_timestamps=timestamps)
        assert _decode(parser.parse, data) == _decode(parser._parse_frame, data)

    @given(ipv4_tcp_frames(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_fast_branch_equals_general_path(self, data, timestamps):
        parser = PacketParser(extract_timestamps=timestamps)
        assert _decode(parser.parse, data) == _decode(parser._parse_frame, data)

    @given(tap_frames())
    @settings(max_examples=200, deadline=None)
    def test_equal_on_everything_a_tap_sees(self, data):
        parser = PacketParser()
        assert _decode(parser.parse, data) == _decode(parser._parse_frame, data)


def _reference_hash(nic: NicPort, data: bytes):
    """(hash, queue) the way the NIC hashed before the one-decode path."""
    key = NicPort._extract_tuple(data)
    if key is None:
        return 0, nic.hasher.queue_for_hash(0)
    rss_hash = nic.hasher.hash_tuple(*key)
    return rss_hash, nic.hasher.queue_for_hash(rss_hash)


def _oracle_hash(data: bytes) -> int:
    """The bit-serial Toeplitz hash of the extracted tuple."""
    key = NicPort._extract_tuple(data)
    if key is None:
        return 0
    src, dst, sport, dport, is_ipv6 = key
    width = 16 if is_ipv6 else 4
    tuple_bytes = (
        src.to_bytes(width, "big") + dst.to_bytes(width, "big")
        + struct.pack("!HH", sport, dport)
    )
    rss_key = (SYMMETRIC_RSS_KEY * 3)[: len(tuple_bytes) + 4]
    return toeplitz_hash(rss_key, tuple_bytes)


class TestBurstHash:
    @given(st.lists(tap_frames(), min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_hash_and_queue_match_extract_and_oracle(self, frames):
        nic = NicPort(num_queues=4, queue_capacity=64)
        packets = [Packet(data=data, timestamp_ns=i) for i, data in enumerate(frames)]
        assert nic.receive_burst(packets) == len(packets)
        queued = [mbuf for queue in nic.queues for mbuf in queue.rx_burst(64)]
        assert len(queued) == len(frames)
        parser = PacketParser()
        for mbuf in queued:
            rss_hash, queue_id = _reference_hash(nic, mbuf.data)
            assert (mbuf.rss_hash, mbuf.queue_id) == (rss_hash, queue_id)
            assert mbuf.rss_hash == _oracle_hash(mbuf.data)
            expected = _decode(parser.parse, mbuf.data, mbuf.timestamp_ns)
            assert _carried(mbuf.decoded) == expected

    @given(ipv6_ints, ipv6_ints, ports, ports, st.lists(
        st.sampled_from([EXT_HOP_BY_HOP, EXT_ROUTING, EXT_DEST_OPTS]),
        min_size=1, max_size=3,
    ))
    def test_ipv6_with_extension_headers_hashes_to_queue_zero(
        self, src, dst, sport, dport, extensions
    ):
        data = _ipv6_frame(src, dst, sport, dport, TCP_FLAG_SYN, extensions)
        nic = NicPort(num_queues=4)
        assert nic.receive(Packet(data=data, timestamp_ns=5))
        (mbuf,) = nic.queues[0].rx_burst(4)
        # The parser walks the extensions; the NIC's hash does not.
        assert not isinstance(mbuf.decoded, ParseError)
        assert (mbuf.rss_hash, mbuf.queue_id) == (0, 0)


def _seed_receive(nic: NicPort, packet: Packet) -> str:
    """Per-frame admission as the NIC did it before burst admission;
    returns the frame's fate: "queued", "shed" or "dropped"."""
    data = packet.data
    admission = nic.admission
    klass = None
    if admission is not None:
        admitted, klass, data = admission.admit_frame(data)
        if not admitted:
            nic.stats.record_miss()
            return "shed"
    rss_hash, queue_id = _reference_hash(nic, data)
    try:
        mbuf = nic.pool.alloc(
            data=data, timestamp_ns=packet.timestamp_ns,
            rss_hash=rss_hash, queue_id=queue_id,
        )
    except MbufPoolExhausted:
        nic.stats.record_miss()
        return "dropped"
    ring = nic.queues[queue_id].ring
    if ring.is_full:
        if admission is not None and admission.should_displace(klass):
            victim = ring.displace_newest(admission.is_displaceable)
            if victim is not None:
                victim.free()
                admission.record_ring_displacement()
                ring.enqueue(mbuf)
                nic.stats.record_rx(queue_id, len(data))
                return "queued"
        mbuf.free()
        nic.stats.record_miss()
        if admission is not None:
            admission.record_ring_drop(klass)
            return "shed"
        return "dropped"
    ring.enqueue(mbuf)
    nic.stats.record_rx(queue_id, len(data))
    return "queued"


@st.composite
def ramp_frames(draw):
    """A ddos-ramp-shaped mix: handshakes, a flood of data segments
    toward one target, and non-TCP chatter."""
    count = draw(st.integers(1, 160))
    flood_share = draw(st.integers(0, 10))
    frames = []
    for i in range(count):
        roll = draw(st.integers(0, 12))
        sport = draw(st.integers(1024, 1100))
        if roll < flood_share:
            frames.append(build_tcp_packet(
                0x0B000000 + sport, 0x0A000001, sport, 443,
                TCP_FLAG_PSH | TCP_FLAG_ACK,
                payload=b"x" * draw(st.sampled_from([64, 400, 1200])),
                timestamp_ns=i,
            ))
        elif roll < 11:
            frames.append(build_tcp_packet(
                0x0C000000 + sport, 0x0A000002, sport, 80,
                draw(st.sampled_from([TCP_FLAG_SYN, TCP_FLAG_SYN | TCP_FLAG_ACK, TCP_FLAG_ACK])),
                timestamp_ns=i,
            ))
        else:
            frames.append(Packet(
                data=_udp_frame(0x0D000000 + sport, 0x0A000003, sport, 53),
                timestamp_ns=i,
            ))
    return frames


def _port(controlled: bool, level: int, pool_size: int, capacity: int) -> NicPort:
    controller = None
    if controlled:
        controller = OverloadController(sampled_modulus=3, snap_len=96)
        controller.level = level
    return NicPort(
        num_queues=2, queue_capacity=capacity,
        mbuf_pool=MbufPool(size=pool_size), admission=controller,
    )


def _snapshot(nic: NicPort) -> dict:
    state = {
        "port": (
            nic.stats.ipackets, nic.stats.ibytes, nic.stats.imissed,
            list(nic.stats.q_ipackets.items()),
        ),
        "rings": [
            (
                [(m.data, m.timestamp_ns, m.rss_hash, m.queue_id) for m in q.ring._items],
                q.ring.enqueued, q.ring.drops, q.ring.displaced, q.ring.high_watermark,
            )
            for q in nic.queues
        ],
        "pool": (
            nic.pool.available, nic.pool.alloc_count, nic.pool.free_count,
            nic.pool.exhausted_count,
        ),
    }
    controller = nic.admission
    if controller is not None:
        state["overload"] = (
            dict(controller.offered), dict(controller.admitted),
            controller.truncated, controller.ring_displacements,
            controller.shed_counts(),
        )
    return state


class TestBurstAdmission:
    @given(
        ramp_frames(),
        st.lists(st.integers(1, 64), min_size=1, max_size=8),
        st.booleans(),
        st.integers(0, len(LEVEL_NAMES) - 1),
        st.integers(4, 96),
        st.integers(2, 48),
    )
    @settings(max_examples=150, deadline=None)
    def test_counters_equal_per_frame_admission(
        self, frames, bursts, controlled, level, pool_size, capacity
    ):
        reference = _port(controlled, level, pool_size, capacity)
        burst = _port(controlled, level, pool_size, capacity)
        fates = {"queued": 0, "shed": 0, "dropped": 0}
        queued = 0
        position, turn = 0, 0
        while position < len(frames):
            chunk = frames[position:position + bursts[turn % len(bursts)]]
            position += len(chunk)
            turn += 1
            for packet in chunk:
                fates[_seed_receive(reference, packet)] += 1
            queued += burst.receive_burst(chunk)
            assert _snapshot(burst) == _snapshot(reference)
            # A worker drains part of queue 0 between bursts, so pool
            # and ring pressure rise and fall as they would live.
            for nic in (reference, burst):
                for mbuf in nic.queues[0].rx_burst(capacity // 2):
                    mbuf.free()
        assert queued == fates["queued"]
        assert burst.shed == fates["shed"]


def _add_twice_on_packet(detector: SynFloodDetector, packet) -> None:
    """The SYN-flood observer's original step: every SYN or ACK goes
    through ``WindowedRate.add`` on both counters."""
    detector.packets_seen += 1
    target = detector._target_of(packet)
    if packet.is_syn:
        closed_acks = detector._acks.add(target, packet.timestamp_ns, count=0)
        if closed_acks is not None:
            detector._closed_ack_window = closed_acks
        closed_syns = detector._syns.add(target, packet.timestamp_ns)
        if closed_syns is not None:
            detector._evaluate(closed_syns)
    elif packet.is_ack:
        closed_acks = detector._acks.add(target, packet.timestamp_ns, count=1)
        if closed_acks is not None:
            detector._closed_ack_window = closed_acks
        closed_syns = detector._syns.add(target, packet.timestamp_ns, count=0)
        if closed_syns is not None:
            detector._evaluate(closed_syns)


def _events(detector: SynFloodDetector):
    return [
        (e.start_ns, e.end_ns, e.subject, e.description, sorted(e.evidence.items()))
        for e in detector.events
    ]


class TestSynFloodDirectCount:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0x02, 0x10, 0x12, 0x04, 0x11, 0x00]),
                st.integers(0, 3),  # target network
                st.integers(-300, 900),  # time step; negative = reordered
            ),
            max_size=300,
        ),
        st.integers(0, 3),  # reload a checkpoint after this many quarters
    )
    @settings(max_examples=150, deadline=None)
    def test_direct_counts_equal_add_on_both_counters(self, steps, restore_at):
        def make():
            return SynFloodDetector(
                window_ns=1_000, min_syn_rate=2e6, max_completion_fraction=0.5
            )

        fast, reference = make(), make()
        now = latest = 10_000
        for index, (tcp_flags, net, step) in enumerate(steps):
            now = max(0, now + step)
            latest = max(latest, now)
            packet = ParsedPacket(
                src_ip=0x0A000001, dst_ip=0x14000000 + (net << 8) + 1,
                src_port=1234, dst_port=443, flags=tcp_flags, seq=0, ack=0,
                payload_len=0, timestamp_ns=now,
            )
            fast.on_packet(packet)
            _add_twice_on_packet(reference, packet)
            if index == restore_at * len(steps) // 4:
                # A restore into a live detector replaces the window
                # dicts the direct-count path writes into.
                fast.load_state(json.loads(json.dumps(fast.state_dict())))
                reference.load_state(json.loads(json.dumps(reference.state_dict())))
            assert fast.state_dict() == reference.state_dict()
            assert _events(fast) == _events(reference)
        fast.finish(now_ns=latest + 1_000)
        reference.finish(now_ns=latest + 1_000)
        assert _events(fast) == _events(reference)
