"""Receive Side Scaling: the Toeplitz hash and queue selection.

Ruru "configure[s] symmetric Receiver Side Scaling (RSS) at the start
of the pipeline" so that both directions of a TCP flow — the SYN one
way, the SYN-ACK the other — hash to the same receive queue and
therefore meet in the same per-queue hash table. This module
implements the actual Toeplitz hash NICs use, the symmetric-key trick
(a key built from a repeated 16-bit pattern makes the hash invariant
under src/dst swap), and the RETA-style indirection table that maps a
hash to a queue.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence

# Microsoft's example verification key from the RSS specification; the
# de-facto default in many NIC drivers. Not symmetric.
DEFAULT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


def make_symmetric_key(length: int = 40, pattern: bytes = b"\x6d\x5a") -> bytes:
    """Build a symmetric RSS key by repeating a 16-bit *pattern*.

    With a key whose bytes repeat with period 2, the Toeplitz hash of
    (src, dst, sport, dport) equals the hash of (dst, src, dport,
    sport) — the property Ruru's per-queue hash tables rely on.
    """
    if length <= 0:
        raise ValueError("key length must be positive")
    if len(pattern) != 2:
        raise ValueError("symmetric pattern must be exactly 2 bytes")
    repeats = (length + 1) // 2
    return (pattern * repeats)[:length]


# The standard symmetric key (repeated 0x6d5a), as used by e.g. the
# original symmetric-RSS paper and DPDK sample configs.
SYMMETRIC_RSS_KEY = make_symmetric_key(40)


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """Reference bit-serial Toeplitz hash (32-bit result).

    For every set bit *i* of *data* (MSB first), XOR in the 32-bit
    window of *key* starting at bit *i*. Kept simple as the oracle the
    fast table-driven :class:`RssHasher` is tested against.
    """
    needed_bits = len(data) * 8 + 32
    if len(key) * 8 < needed_bits:
        raise ValueError(
            f"key too short: need {needed_bits} bits, have {len(key) * 8}"
        )
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    for i in range(len(data) * 8):
        byte = data[i // 8]
        if byte & (0x80 >> (i % 8)):
            window = (key_int >> (key_bits - 32 - i)) & 0xFFFFFFFF
            result ^= window
    return result


class RssHasher:
    """Table-accelerated Toeplitz hasher with queue selection.

    Precomputes, per (byte offset, byte value), the XOR contribution to
    the hash — the same optimization NIC datasheets describe — so
    per-packet hashing is a handful of table lookups: 12 for an IPv4
    tuple, 36 for IPv6.

    Args:
        key: the 40-byte (or longer, for IPv6) RSS key. Defaults to
            the symmetric key, matching Ruru's configuration.
        num_queues: receive queues to spread across.
        reta_size: size of the redirection table (power of two).
    """

    IPV4_TUPLE_LEN = 12  # src(4) dst(4) sport(2) dport(2)
    IPV6_TUPLE_LEN = 36  # src(16) dst(16) sport(2) dport(2)

    def __init__(
        self,
        key: bytes = SYMMETRIC_RSS_KEY,
        num_queues: int = 4,
        reta_size: int = 128,
    ):
        if num_queues <= 0:
            raise ValueError("need at least one queue")
        if reta_size <= 0 or reta_size & (reta_size - 1):
            raise ValueError("reta_size must be a positive power of two")
        min_len = self.IPV4_TUPLE_LEN + 4
        if len(key) < min_len:
            raise ValueError(f"RSS key must be at least {min_len} bytes")
        self.key = key
        self.num_queues = num_queues
        # Default RETA: round-robin queues across the table, like
        # rte_eth_dev_rss_reta_update's common initialization.
        self.reta: List[int] = [i % num_queues for i in range(reta_size)]
        self._tables: Dict[int, List[List[int]]] = {}
        self._ipv4_table = tuple(self._table_for_length(self.IPV4_TUPLE_LEN))

    # -- hashing ---------------------------------------------------------

    def _table_for_length(self, length: int) -> List[List[int]]:
        """Per-byte XOR contribution tables for inputs of *length* bytes."""
        table = self._tables.get(length)
        if table is not None:
            return table
        if len(self.key) * 8 < length * 8 + 32:
            # IPv6 tuples need a 68-byte key; extend by cycling, which
            # preserves the 2-byte symmetry of symmetric keys.
            repeats = (length + 4 + len(self.key) - 1) // len(self.key) + 1
            key = (self.key * repeats)[: length + 4]
        else:
            key = self.key
        key_int = int.from_bytes(key, "big")
        key_bits = len(key) * 8
        table = []
        for offset in range(length):
            # The hash is linear in the input bits, so the row doubles
            # once per bit, least significant (bit 7 of the byte) first:
            # the values so far, then the same values with this bit set,
            # i.e. XOR the 32-bit key window the bit selects.
            row = [0]
            for bit in range(7, -1, -1):
                window = (
                    key_int >> (key_bits - 32 - (offset * 8 + bit))
                ) & 0xFFFFFFFF
                row += [value ^ window for value in row]
            table.append(row)
        self._tables[length] = table
        return table

    def hash_bytes(self, data: bytes) -> int:
        """Toeplitz hash of arbitrary-length *data*."""
        table = self._table_for_length(len(data))
        result = 0
        for offset, byte in enumerate(data):
            result ^= table[offset][byte]
        return result

    def hash_ipv4_tuple(
        self, src_ip: int, dst_ip: int, src_port: int, dst_port: int
    ) -> int:
        """Hash an IPv4 TCP/UDP 4-tuple: 12 table lookups, one per
        input byte, taken straight from the integers (no packing)."""
        (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11) = self._ipv4_table
        return (
            t0[src_ip >> 24] ^ t1[src_ip >> 16 & 0xFF]
            ^ t2[src_ip >> 8 & 0xFF] ^ t3[src_ip & 0xFF]
            ^ t4[dst_ip >> 24] ^ t5[dst_ip >> 16 & 0xFF]
            ^ t6[dst_ip >> 8 & 0xFF] ^ t7[dst_ip & 0xFF]
            ^ t8[src_port >> 8] ^ t9[src_port & 0xFF]
            ^ t10[dst_port >> 8] ^ t11[dst_port & 0xFF]
        )

    def hash_ipv6_tuple(
        self, src_ip: int, dst_ip: int, src_port: int, dst_port: int
    ) -> int:
        """Hash an IPv6 TCP/UDP 4-tuple."""
        data = (
            src_ip.to_bytes(16, "big")
            + dst_ip.to_bytes(16, "big")
            + struct.pack("!HH", src_port, dst_port)
        )
        return self.hash_bytes(data)

    def hash_tuple(
        self,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        is_ipv6: bool = False,
    ) -> int:
        """Hash a 4-tuple, dispatching on address family."""
        if is_ipv6:
            return self.hash_ipv6_tuple(src_ip, dst_ip, src_port, dst_port)
        return self.hash_ipv4_tuple(src_ip, dst_ip, src_port, dst_port)

    # -- queue selection ---------------------------------------------------

    def queue_for_hash(self, rss_hash: int) -> int:
        """Map a 32-bit hash to a queue via the indirection table."""
        return self.reta[rss_hash & (len(self.reta) - 1)]

    def set_reta(self, entries: Sequence[int]) -> None:
        """Replace the redirection table (length must be a power of two)."""
        size = len(entries)
        if size <= 0 or size & (size - 1):
            raise ValueError("RETA length must be a positive power of two")
        for queue in entries:
            if not 0 <= queue < self.num_queues:
                raise ValueError(f"RETA entry {queue} out of range")
        self.reta = list(entries)

    @property
    def is_symmetric(self) -> bool:
        """True if the key has the 2-byte repetition symmetry property."""
        return all(
            self.key[i] == self.key[i % 2] for i in range(len(self.key))
        )
