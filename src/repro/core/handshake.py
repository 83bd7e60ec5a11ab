"""The handshake state machine — Fig 1 of the paper.

For each flow the tracker records three timestamps:

* ``t1`` — the first SYN crossing the tap,
* ``t2`` — the following SYN-ACK,
* ``t3`` — the first ACK completing the handshake,

and emits ``external = t2 − t1`` (tap↔destination RTT) and
``internal = t3 − t2`` (tap↔source RTT); their sum is the full
source↔destination latency.

Real traffic makes this harder than the figure: SYN and SYN-ACK
retransmissions (the first timestamp is kept, per the paper), RSTs
aborting half-open handshakes, flows whose SYN predates the capture
(orphan SYN-ACKs), the torrent of data ACKs on established flows that
must not be confused with handshake ACKs, and sequence-number
validation so a stray segment that merely shares a recycled 4-tuple
cannot produce a bogus measurement. All of these paths are counted in
:class:`~repro.core.stats.TrackerStats` and tested.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.config import PipelineConfig
from repro.core.flow_table import (
    FlowEntry,
    FlowState,
    HandshakeTable,
    canonical_flow_key,
)
from repro.core.latency import LatencyRecord
from repro.core.stats import TrackerStats
from repro.net.parser import ParsedPacket

_SEQ_MOD = 1 << 32

# TCP flag bits the state machine dispatches on.
_RST = 0x04
_SYN = 0x02
_ACK = 0x10
_SYN_ACK = _SYN | _ACK

MeasurementSink = Callable[[LatencyRecord], None]


class HandshakeTracker:
    """One tracker per receive queue; single-threaded by construction.

    Args:
        config: pipeline tunables (table size, timeouts, strictness).
        queue_id: which RSS queue this tracker serves (labels output).
        sink: called with each :class:`LatencyRecord` as it completes.
            When None, records accumulate in :attr:`pending` for the
            caller to drain — handy in tests and offline analysis.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        queue_id: int = 0,
        sink: Optional[MeasurementSink] = None,
    ):
        self.config = config or PipelineConfig()
        self.queue_id = queue_id
        self.sink = sink
        self.table = HandshakeTable(
            max_entries=self.config.flow_table_size, queue_id=queue_id
        )
        self.stats = TrackerStats()
        self.pending: List[LatencyRecord] = []
        self._last_sweep_ns = 0

    # -- public API --------------------------------------------------------

    def process(self, packet: ParsedPacket, rss_hash: int = 0) -> Optional[LatencyRecord]:
        """Feed one parsed TCP packet; returns a record if one completed."""
        self.stats.packets += 1
        flags = packet.flags
        if flags & _RST:
            self._on_rst(packet)
            return None
        handshake_bits = flags & _SYN_ACK
        if handshake_bits == _ACK:
            return self._on_ack(packet)
        if handshake_bits == _SYN:
            self._on_syn(packet, rss_hash)
        elif handshake_bits == _SYN_ACK:
            self._on_synack(packet)
        return None

    def sweep_due(self, now_ns: int) -> bool:
        """Whether :meth:`maybe_sweep` would actually sweep at *now_ns*."""
        return now_ns - self._last_sweep_ns >= self.config.sweep_interval_ns

    def maybe_sweep(self, now_ns: int) -> int:
        """Run the expiry sweep if the sweep interval has elapsed."""
        if now_ns - self._last_sweep_ns < self.config.sweep_interval_ns:
            return 0
        self._last_sweep_ns = now_ns
        return self.table.sweep_expired(now_ns, self.config.handshake_timeout_ns)

    def drain(self) -> List[LatencyRecord]:
        """Return and clear records accumulated when no sink is set."""
        records, self.pending = self.pending, []
        return records

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the in-flight table, counters, pending records and
        sweep schedule — everything a restored tracker needs to complete
        handshakes whose SYN predates the crash."""
        from dataclasses import asdict

        return {
            "table": self.table.state_dict(),
            "stats": self.stats.state_dict(),
            "pending": [asdict(record) for record in self.pending],
            "last_sweep_ns": self._last_sweep_ns,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.table.load_state(state["table"])
        self.stats.load_state(state["stats"])
        self.pending = [LatencyRecord(**row) for row in state["pending"]]
        self._last_sweep_ns = int(state["last_sweep_ns"])

    # -- state machine -----------------------------------------------------

    def _on_syn(self, packet: ParsedPacket, rss_hash: int) -> None:
        self.stats.syn += 1
        key = canonical_flow_key(
            packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port,
            packet.is_ipv6,
        )
        entry = self.table.get(key)
        if entry is not None:
            same_originator = (
                entry.orig_ip == packet.src_ip and entry.orig_port == packet.src_port
            )
            if same_originator:
                # Retransmitted SYN: the paper keeps the *first* SYN's
                # timestamp, so only count it.
                entry.syn_retransmits += 1
                self.stats.syn_retransmits += 1
                return
            # 4-tuple reuse with swapped roles (or simultaneous open):
            # restart tracking for the new attempt.
            self.table.remove(key, reason="aborted")
            self.stats.resets += 1
        new_entry = FlowEntry(
            state=FlowState.SYN_SEEN,
            orig_ip=packet.src_ip,
            orig_port=packet.src_port,
            resp_ip=packet.dst_ip,
            resp_port=packet.dst_port,
            is_ipv6=packet.is_ipv6,
            syn_ns=packet.timestamp_ns,
            syn_seq=packet.seq,
            rss_hash=rss_hash,
        )
        self.table.insert(key, new_entry)

    def _on_synack(self, packet: ParsedPacket) -> None:
        self.stats.synack += 1
        key = canonical_flow_key(
            packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port,
            packet.is_ipv6,
        )
        entry = self.table.get(key)
        if entry is None:
            # Flow began before the tap did, or the SYN was evicted.
            self.stats.orphan_synack += 1
            return
        from_responder = (
            entry.resp_ip == packet.src_ip and entry.resp_port == packet.src_port
        )
        if not from_responder:
            self.stats.seq_mismatch += 1
            return
        if entry.state is FlowState.SYNACK_SEEN:
            # Retransmitted SYN-ACK: keep the first timestamp.
            entry.synack_retransmits += 1
            self.stats.synack_retransmits += 1
            return
        if self.config.strict_sequence_check:
            expected_ack = (entry.syn_seq + 1) % _SEQ_MOD
            if packet.ack != expected_ack:
                self.stats.seq_mismatch += 1
                return
        entry.state = FlowState.SYNACK_SEEN
        entry.synack_ns = packet.timestamp_ns
        entry.synack_seq = packet.seq

    def _on_ack(self, packet: ParsedPacket) -> Optional[LatencyRecord]:
        key = canonical_flow_key(
            packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port,
            packet.is_ipv6,
        )
        entry = self.table.get(key)
        if entry is None or entry.state is not FlowState.SYNACK_SEEN:
            # Either an established flow's data ACK (no entry) or an
            # ACK racing ahead of the SYN-ACK the tap never saw.
            self.stats.stray_ack += 1
            return None
        from_originator = (
            entry.orig_ip == packet.src_ip and entry.orig_port == packet.src_port
        )
        if not from_originator:
            self.stats.stray_ack += 1
            return None
        if self.config.strict_sequence_check:
            expected_seq = (entry.syn_seq + 1) % _SEQ_MOD
            expected_ack = (entry.synack_seq + 1) % _SEQ_MOD
            if packet.seq != expected_seq or packet.ack != expected_ack:
                self.stats.seq_mismatch += 1
                return None

        self.stats.ack_completed += 1
        self.table.remove(key, reason="completed")

        external_ns = entry.synack_ns - entry.syn_ns
        internal_ns = packet.timestamp_ns - entry.synack_ns
        if (
            external_ns < 0
            or internal_ns < 0
            or external_ns > self.config.max_latency_ns
            or internal_ns > self.config.max_latency_ns
        ):
            self.stats.invalid_latency += 1
            return None

        record = LatencyRecord(
            src_ip=entry.orig_ip,
            dst_ip=entry.resp_ip,
            src_port=entry.orig_port,
            dst_port=entry.resp_port,
            internal_ns=internal_ns,
            external_ns=external_ns,
            syn_ns=entry.syn_ns,
            synack_ns=entry.synack_ns,
            ack_ns=packet.timestamp_ns,
            is_ipv6=entry.is_ipv6,
            queue_id=self.queue_id,
            rss_hash=entry.rss_hash,
        )
        self.stats.measurements += 1
        if self.sink is not None:
            self.sink(record)
        else:
            self.pending.append(record)
        return record

    def _on_rst(self, packet: ParsedPacket) -> None:
        key = canonical_flow_key(
            packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port,
            packet.is_ipv6,
        )
        if self.table.remove(key, reason="aborted") is not None:
            self.stats.resets += 1
