"""Fast TCP pre-parser — the pipeline's hot path.

Ruru "pre-parses all TCP packet headers" before the handshake logic.
This module does the equivalent: a single pass over the raw frame that
extracts only the fields the latency engine needs (addresses, ports,
flags, seq/ack, payload length, and optionally the TCP timestamp
option for the pping baseline), without building the full header
dataclasses from :mod:`repro.net.ethernet` et al. The NIC runs it once
per admitted frame (:meth:`repro.dpdk.nic.NicPort.receive_burst`) and
hands the result to the worker on the mbuf.

Non-TCP and malformed packets raise :class:`ParseError`; the pipeline
counts and drops them, mirroring the DPDK application's filter.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional, Tuple

from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, ETHERTYPE_VLAN
from repro.net.ipv4 import PROTO_TCP
from repro.net.ipv6 import SKIPPABLE_EXTENSIONS
from repro.net.tcp import OPT_END, OPT_NOP, OPT_TIMESTAMP

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

# The common frame in one unpack: untagged Ethernet, a 20-byte IPv4
# header and the first 14 bytes of TCP. Fields: ethertype,
# version/IHL, total length, flags/fragment offset, protocol, src,
# dst, sport, dport, seq, ack, data offset, TCP flags.
_FAST = struct.Struct("!12xHBxH2xHxB2xIIHHIIBB")
_FAST_MIN_LEN = 54  # Ethernet + IPv4 (IHL 5) + a full 20-byte TCP header
_new_tuple = tuple.__new__


class ParseError(ValueError):
    """Raised for frames the fast path cannot or will not handle.

    The ``reason`` attribute is a short stable token used by the
    pipeline's drop counters (e.g. ``"not-tcp"``, ``"truncated"``).
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class ParsedPacket(NamedTuple):
    """The minimal view of a TCP packet the latency engine consumes.

    An immutable named tuple: the NIC builds one per admitted frame, so
    construction cost is on the per-packet path.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    flags: int
    seq: int
    ack: int
    payload_len: int
    timestamp_ns: int
    is_ipv6: bool = False
    tsval: Optional[int] = None
    tsecr: Optional[int] = None

    @property
    def is_syn(self) -> bool:
        """Pure SYN (connection-open attempt)."""
        return (self.flags & 0x12) == 0x02

    @property
    def is_synack(self) -> bool:
        """SYN+ACK."""
        return (self.flags & 0x12) == 0x12

    @property
    def is_ack(self) -> bool:
        """ACK without SYN (includes the handshake-completing ACK)."""
        return (self.flags & 0x12) == 0x10

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & 0x04)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & 0x01)

    def four_tuple(self) -> Tuple[int, int, int, int]:
        """(src_ip, src_port, dst_ip, dst_port) in packet direction."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)


class PacketParser:
    """Stateless fast parser; the NIC owns one and decodes every frame
    it admits exactly once.

    Args:
        extract_timestamps: also decode the RFC 7323 timestamp option
            (needed only by the pping baseline; the Ruru fast path
            leaves it off).
        max_vlan_tags: how many stacked 802.1Q tags to skip.
    """

    def __init__(self, extract_timestamps: bool = False, max_vlan_tags: int = 2):
        self.extract_timestamps = extract_timestamps
        self.max_vlan_tags = max_vlan_tags

    def parse(self, data: bytes, timestamp_ns: int) -> ParsedPacket:
        """Parse one raw frame into a :class:`ParsedPacket`.

        Raises:
            ParseError: for truncated frames, non-IP ethertypes,
                non-TCP protocols, and IP fragments (the handshake
                packets Ruru cares about are never fragmented).
        """
        if len(data) >= _FAST_MIN_LEN:
            (
                ethertype, version_ihl, total_length, flags_frag, protocol,
                src, dst, src_port, dst_port, seq, ack, data_offset, flags,
            ) = _FAST.unpack_from(data)
            # Untagged IPv4, IHL 5, unfragmented TCP with a well-formed
            # header; every other frame takes the general path, which
            # also owns every ParseError.
            if (
                ethertype == ETHERTYPE_IPV4
                and version_ihl == 0x45
                and protocol == PROTO_TCP
                and not flags_frag & 0x3FFF
            ):
                l4_len = min(total_length - 20, len(data) - 34)
                header_len = (data_offset >> 4) * 4
                if 20 <= header_len <= l4_len and not (
                    self.extract_timestamps and header_len > 20
                ):
                    # tuple.__new__ skips the named tuple's Python-level
                    # __new__, halving the build cost; all 12 fields.
                    return _new_tuple(ParsedPacket, (
                        src, dst, src_port, dst_port, flags, seq, ack,
                        l4_len - header_len, timestamp_ns, False, None, None,
                    ))
        return self._parse_frame(data, timestamp_ns)

    def _parse_frame(self, data: bytes, timestamp_ns: int) -> ParsedPacket:
        """The general path: VLAN tags, IPv4 options, IPv6 extension
        headers, TCP timestamps, and every :class:`ParseError`."""
        if len(data) < 14:
            raise ParseError("truncated", "ethernet header")
        ethertype = _U16.unpack_from(data, 12)[0]
        offset = 14
        tags = 0
        while ethertype == ETHERTYPE_VLAN:
            if tags >= self.max_vlan_tags:
                raise ParseError("vlan-depth", f">{self.max_vlan_tags} tags")
            if len(data) < offset + 4:
                raise ParseError("truncated", "vlan tag")
            ethertype = _U16.unpack_from(data, offset + 2)[0]
            offset += 4
            tags += 1

        if ethertype == ETHERTYPE_IPV4:
            return self._parse_ipv4(data, offset, timestamp_ns)
        if ethertype == ETHERTYPE_IPV6:
            return self._parse_ipv6(data, offset, timestamp_ns)
        raise ParseError("not-ip", f"ethertype 0x{ethertype:04x}")

    # -- L3 ------------------------------------------------------------

    def _parse_ipv4(self, data: bytes, offset: int, ts: int) -> ParsedPacket:
        if len(data) < offset + 20:
            raise ParseError("truncated", "ipv4 header")
        version_ihl = data[offset]
        if version_ihl >> 4 != 4:
            raise ParseError("bad-version", "ipv4")
        ihl = (version_ihl & 0xF) * 4
        if ihl < 20 or len(data) < offset + ihl:
            raise ParseError("truncated", "ipv4 options")
        total_length = _U16.unpack_from(data, offset + 2)[0]
        flags_frag = _U16.unpack_from(data, offset + 6)[0]
        # A non-zero fragment offset or the more-fragments bit means this
        # is part of a fragmented datagram; handshake packets never are.
        if flags_frag & 0x1FFF or flags_frag & 0x2000:
            raise ParseError("fragment", "ipv4")
        protocol = data[offset + 9]
        if protocol != PROTO_TCP:
            raise ParseError("not-tcp", f"ipv4 proto {protocol}")
        src = _U32.unpack_from(data, offset + 12)[0]
        dst = _U32.unpack_from(data, offset + 16)[0]
        l4_offset = offset + ihl
        l4_len = max(0, min(total_length - ihl, len(data) - l4_offset))
        return self._parse_tcp(data, l4_offset, l4_len, src, dst, False, ts)

    def _parse_ipv6(self, data: bytes, offset: int, ts: int) -> ParsedPacket:
        if len(data) < offset + 40:
            raise ParseError("truncated", "ipv6 header")
        if data[offset] >> 4 != 6:
            raise ParseError("bad-version", "ipv6")
        payload_length = _U16.unpack_from(data, offset + 4)[0]
        next_header = data[offset + 6]
        src = int.from_bytes(data[offset + 8:offset + 24], "big")
        dst = int.from_bytes(data[offset + 24:offset + 40], "big")
        l4_offset = offset + 40
        end = min(l4_offset + payload_length, len(data))
        # Walk skippable extension headers (each: next-header, len-in-8s).
        while next_header in SKIPPABLE_EXTENSIONS:
            if end < l4_offset + 8:
                raise ParseError("truncated", "ipv6 extension")
            ext_next = data[l4_offset]
            ext_len = (data[l4_offset + 1] + 1) * 8
            l4_offset += ext_len
            next_header = ext_next
        if next_header == 44:  # fragment header
            raise ParseError("fragment", "ipv6")
        if next_header != PROTO_TCP:
            raise ParseError("not-tcp", f"ipv6 next-header {next_header}")
        return self._parse_tcp(data, l4_offset, end - l4_offset, src, dst, True, ts)

    # -- L4 ------------------------------------------------------------

    def _parse_tcp(
        self,
        data: bytes,
        offset: int,
        l4_len: int,
        src: int,
        dst: int,
        is_ipv6: bool,
        ts: int,
    ) -> ParsedPacket:
        if l4_len < 20 or len(data) < offset + 20:
            raise ParseError("truncated", "tcp header")
        src_port = _U16.unpack_from(data, offset)[0]
        dst_port = _U16.unpack_from(data, offset + 2)[0]
        seq = _U32.unpack_from(data, offset + 4)[0]
        ack = _U32.unpack_from(data, offset + 8)[0]
        header_len = (data[offset + 12] >> 4) * 4
        if header_len < 20 or l4_len < header_len:
            raise ParseError("truncated", "tcp options")
        flags = data[offset + 13]

        tsval = tsecr = None
        if self.extract_timestamps and header_len > 20:
            tsval, tsecr = self._find_timestamp(data, offset + 20, offset + header_len)

        return ParsedPacket(
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            flags=flags,
            seq=seq,
            ack=ack,
            payload_len=l4_len - header_len,
            timestamp_ns=ts,
            is_ipv6=is_ipv6,
            tsval=tsval,
            tsecr=tsecr,
        )

    @staticmethod
    def _find_timestamp(data: bytes, start: int, end: int):
        i = start
        while i < end:
            kind = data[i]
            if kind == OPT_END:
                break
            if kind == OPT_NOP:
                i += 1
                continue
            if i + 1 >= end:
                break
            length = data[i + 1]
            if length < 2 or i + length > end:
                break
            if kind == OPT_TIMESTAMP and length == 10:
                tsval = _U32.unpack_from(data, i + 2)[0]
                tsecr = _U32.unpack_from(data, i + 6)[0]
                return tsval, tsecr
            i += length
        return None, None
