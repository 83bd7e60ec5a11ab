"""Per-queue handshake state tables.

The paper: "we record three sub-microsecond timestamps in hash tables
(indexed by the RSS hash) for three packets per flow". Each receive
queue owns one :class:`HandshakeTable`; because the RSS key is
symmetric, the SYN, SYN-ACK and ACK of one flow all land on the same
queue, so no cross-table synchronization is ever needed — the property
that lets Ruru scale linearly across cores.

The table is a bounded insertion-ordered dict keyed by the canonical
4-tuple (hash collisions between distinct flows are therefore
resolved exactly). Capacity pressure evicts the oldest incomplete
handshake; a periodic sweep expires entries whose handshake never
completed — both paths are counted, and both matter under SYN floods.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

FlowKey = Tuple[int, int, int, int, bool]


def canonical_flow_key(
    src_ip: int, src_port: int, dst_ip: int, dst_port: int, is_ipv6: bool = False
) -> FlowKey:
    """Direction-independent flow key: the (ip, port) endpoint pairs
    sorted, so a packet and its reply produce the same key.
    """
    a = (src_ip, src_port)
    b = (dst_ip, dst_port)
    if a <= b:
        return (a[0], a[1], b[0], b[1], is_ipv6)
    return (b[0], b[1], a[0], a[1], is_ipv6)


class FlowState(enum.Enum):
    """Handshake progress of a tracked flow."""

    SYN_SEEN = 1
    SYNACK_SEEN = 2


@dataclass
class FlowEntry:
    """State for one in-flight handshake.

    Orientation fields record the SYN sender so the eventual
    measurement is reported source→destination regardless of which
    canonical order the key used.
    """

    state: FlowState
    orig_ip: int
    orig_port: int
    resp_ip: int
    resp_port: int
    is_ipv6: bool
    syn_ns: int
    syn_seq: int
    rss_hash: int
    synack_ns: int = 0
    synack_seq: int = 0
    syn_retransmits: int = 0
    synack_retransmits: int = 0

    def age_ns(self, now_ns: int) -> int:
        """Nanoseconds since the first SYN."""
        return now_ns - self.syn_ns


class HandshakeTable:
    """Bounded, insertion-ordered table of in-flight handshakes."""

    def __init__(self, max_entries: int = 1 << 16, queue_id: int = 0):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.queue_id = queue_id
        self._entries: "OrderedDict[FlowKey, FlowEntry]" = OrderedDict()
        self.inserted = 0
        self.completed = 0
        self.evicted = 0
        self.expired = 0
        self.aborted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    def get(self, key: FlowKey) -> Optional[FlowEntry]:
        """Look up an in-flight handshake; None if untracked."""
        return self._entries.get(key)

    def insert(self, key: FlowKey, entry: FlowEntry) -> Optional[FlowEntry]:
        """Track a new handshake.

        If the table is full, the oldest entry is evicted to make room
        (returned so the caller can count it); under a SYN flood this
        is what bounds memory.
        """
        evicted: Optional[FlowEntry] = None
        if key not in self._entries and len(self._entries) >= self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self.evicted += 1
        self._entries[key] = entry
        self.inserted += 1
        return evicted

    def remove(self, key: FlowKey, reason: str = "completed") -> Optional[FlowEntry]:
        """Stop tracking *key*; *reason* drives the counters.

        Reasons: ``"completed"`` (measurement emitted), ``"aborted"``
        (RST during handshake), ``"expired"`` (timeout sweep).
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        if reason == "completed":
            self.completed += 1
        elif reason == "aborted":
            self.aborted += 1
        elif reason == "expired":
            self.expired += 1
        return entry

    def sweep_expired(self, now_ns: int, timeout_ns: int) -> int:
        """Expire entries older than *timeout_ns*; returns the count.

        Entries are insertion-ordered, so the scan stops at the first
        young entry — the sweep is O(expired), not O(table).
        """
        removed = 0
        while self._entries:
            key, entry = next(iter(self._entries.items()))
            if entry.age_ns(now_ns) < timeout_ns:
                break
            del self._entries[key]
            self.expired += 1
            removed += 1
        return removed

    def entries(self) -> Iterator[Tuple[FlowKey, FlowEntry]]:
        """Iterate (key, entry), oldest first."""
        return iter(self._entries.items())

    @property
    def occupancy(self) -> float:
        """Fill fraction of the table."""
        return len(self._entries) / self.max_entries

    # -- durability ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every in-flight handshake plus the counters.

        Keys serialize positionally (a JSON list per entry) and entries
        keep insertion order, so a restored table evicts and sweeps in
        exactly the order the original would have.
        """
        return {
            "max_entries": self.max_entries,
            "queue_id": self.queue_id,
            "counters": {
                "inserted": self.inserted,
                "completed": self.completed,
                "evicted": self.evicted,
                "expired": self.expired,
                "aborted": self.aborted,
            },
            "entries": [
                {
                    # Explicit rows, in FlowEntry field order: asdict's
                    # deep copy cost ~90% of a checkpoint under a flood.
                    "key": list(key),
                    "state": entry.state.value,
                    "orig_ip": entry.orig_ip,
                    "orig_port": entry.orig_port,
                    "resp_ip": entry.resp_ip,
                    "resp_port": entry.resp_port,
                    "is_ipv6": entry.is_ipv6,
                    "syn_ns": entry.syn_ns,
                    "syn_seq": entry.syn_seq,
                    "rss_hash": entry.rss_hash,
                    "synack_ns": entry.synack_ns,
                    "synack_seq": entry.synack_seq,
                    "syn_retransmits": entry.syn_retransmits,
                    "synack_retransmits": entry.synack_retransmits,
                }
                for key, entry in self._entries.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing all entries."""
        self.max_entries = int(state["max_entries"])
        self.queue_id = int(state["queue_id"])
        counters = state["counters"]
        self.inserted = int(counters["inserted"])
        self.completed = int(counters["completed"])
        self.evicted = int(counters["evicted"])
        self.expired = int(counters["expired"])
        self.aborted = int(counters["aborted"])
        self._entries = OrderedDict()
        for row in state["entries"]:
            key_parts = row["key"]
            key: FlowKey = (
                int(key_parts[0]),
                int(key_parts[1]),
                int(key_parts[2]),
                int(key_parts[3]),
                bool(key_parts[4]),
            )
            fields = {
                name: row[name]
                for name in row
                if name not in ("key", "state")
            }
            self._entries[key] = FlowEntry(
                state=FlowState(row["state"]), **fields
            )
