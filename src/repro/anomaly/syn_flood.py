"""SYN-flood detection from the handshake packet stream (E5).

Runs as an in-pipeline observer (see
:class:`~repro.core.worker.QueueWorker`'s ``observers``): for every
parsed packet it counts SYNs and handshake completions per target
network, in tumbling windows. A window whose SYN rate exceeds
*min_syn_rate* **and** whose completion fraction falls below
*max_completion_fraction* opens a flood event for that target;
consecutive hot windows extend it, a cold window closes it.

Targets are keyed by destination /24 (configurable), never full
addresses — the detector's own output respects the privacy rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.anomaly.baseline import WindowedRate
from repro.anomaly.events import AnomalyEvent, Severity
from repro.net.addresses import int_to_ip
from repro.net.parser import ParsedPacket

NS_PER_S = 1_000_000_000

TargetKey = Tuple[int, bool]  # truncated address, is_ipv6


class SynFloodDetector:
    """Windowed SYN-rate / completion-ratio detector."""

    def __init__(
        self,
        window_ns: int = NS_PER_S,
        min_syn_rate: float = 500.0,
        max_completion_fraction: float = 0.3,
        prefix_bits: int = 24,
    ):
        if not 0 < max_completion_fraction <= 1.0:
            raise ValueError("completion fraction must be in (0, 1]")
        if min_syn_rate <= 0:
            raise ValueError("min_syn_rate must be positive")
        if not 0 < prefix_bits <= 32:
            raise ValueError("prefix_bits must be in (0, 32]")
        self.window_ns = window_ns
        self.min_syn_rate = min_syn_rate
        self.max_completion_fraction = max_completion_fraction
        self.prefix_bits = prefix_bits
        self._syns: WindowedRate[TargetKey] = WindowedRate(window_ns)
        self._acks: WindowedRate[TargetKey] = WindowedRate(window_ns)
        # The most recently closed ACK window, kept until the matching
        # SYN window closes (the two counters can close at different
        # packets).
        self._closed_ack_window: Optional[Tuple[int, Dict[TargetKey, int]]] = None
        self._open: Dict[TargetKey, AnomalyEvent] = {}
        self.events: List[AnomalyEvent] = []
        self.packets_seen = 0
        # While both counters share one open window, packets before
        # ``_same_window_until_ns`` are counted straight into its dicts.
        self._same_window_until_ns: Optional[int] = None
        self._syn_counts: Dict[TargetKey, int] = {}
        self._ack_counts: Dict[TargetKey, int] = {}

    def _target_of(self, packet: ParsedPacket) -> TargetKey:
        if packet.is_ipv6:
            truncated = packet.dst_ip >> 80 << 80  # keep /48
            return (truncated, True)
        shift = 32 - self.prefix_bits
        return ((packet.dst_ip >> shift) << shift, False)

    def on_packet(self, packet: ParsedPacket) -> None:
        """Observer entry point: feed every parsed TCP packet."""
        self.packets_seen += 1
        handshake_bits = packet.flags & 0x12
        if handshake_bits == 0x02:  # SYN
            syns, acks = 1, 0
        elif handshake_bits == 0x10:  # ACK
            # ACKs toward the flooded target approximate handshakes the
            # target's clients actually completed; a flood of spoofed
            # SYNs produces none.
            syns, acks = 0, 1
        else:
            return
        target = self._target_of(packet)
        timestamp_ns = packet.timestamp_ns
        until_ns = self._same_window_until_ns
        if until_ns is not None and timestamp_ns < until_ns:
            # Same window for both counters: nothing can close, so
            # count directly (the zero keeps the target in both windows,
            # exactly as add(count=0) would).
            syn_counts = self._syn_counts
            syn_counts[target] = syn_counts.get(target, 0) + syns
            ack_counts = self._ack_counts
            ack_counts[target] = ack_counts.get(target, 0) + acks
            return
        closed_acks = self._acks.add(target, timestamp_ns, count=acks)
        if closed_acks is not None:
            self._closed_ack_window = closed_acks
        closed_syns = self._syns.add(target, timestamp_ns, count=syns)
        if closed_syns is not None:
            self._evaluate(closed_syns)
        self._track_open_window()

    def _track_open_window(self) -> None:
        """Re-arm the direct-count path after the counters changed."""
        syn_window = self._syns.open_window()
        ack_window = self._acks.open_window()
        if syn_window is None or ack_window is None or syn_window[0] != ack_window[0]:
            self._same_window_until_ns = None
            return
        self._same_window_until_ns = syn_window[0] + self._syns.window_ns
        self._syn_counts = syn_window[1]
        self._ack_counts = ack_window[1]

    def _evaluate(self, closed_syns) -> None:
        window_start, syn_counts = closed_syns
        ack_counts: Dict[TargetKey, int] = {}
        if (
            self._closed_ack_window is not None
            and self._closed_ack_window[0] == window_start
        ):
            ack_counts = self._closed_ack_window[1]
        window_s = self.window_ns / NS_PER_S
        for target, syn_count in syn_counts.items():
            rate = syn_count / window_s
            completions = ack_counts.get(target, 0)
            fraction = completions / syn_count if syn_count else 1.0
            hot = rate >= self.min_syn_rate and fraction <= self.max_completion_fraction
            open_event = self._open.get(target)
            if hot and open_event is None:
                address, is_ipv6 = target
                label = "ipv6-net" if is_ipv6 else f"{int_to_ip(address)}/{self.prefix_bits}"
                event = AnomalyEvent(
                    kind="syn-flood",
                    start_ns=window_start,
                    severity=Severity.CRITICAL,
                    description=(
                        f"{rate:.0f} SYN/s toward {label}, "
                        f"completion {fraction:.0%}"
                    ),
                    subject=label,
                    evidence={
                        "syn_rate": rate,
                        "completion_fraction": fraction,
                    },
                )
                self._open[target] = event
                self.events.append(event)
            elif hot and open_event is not None:
                open_event.evidence["syn_rate"] = max(
                    open_event.evidence.get("syn_rate", 0.0), rate
                )
            elif not hot and open_event is not None:
                open_event.close(window_start + self.window_ns)
                del self._open[target]

    def finish(self, now_ns: Optional[int] = None) -> List[AnomalyEvent]:
        """End of stream: evaluate the last window, close open events."""
        closed_acks = self._acks.flush()
        if closed_acks is not None:
            self._closed_ack_window = closed_acks
        closed_syns = self._syns.flush()
        if closed_syns is not None:
            self._evaluate(closed_syns)
        self._track_open_window()
        for target, event in list(self._open.items()):
            if event.is_open and now_ns is not None:
                event.close(now_ns)
        self._open.clear()
        return list(self.events)

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the open SYN/ACK windows and the packet counter.

        Open flood events are excluded (same reasoning as the spike
        detector: an ongoing flood re-opens within one window).
        """
        return {
            "syns": self._syns.state_dict(),
            "acks": self._acks.state_dict(),
            "packets_seen": self.packets_seen,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._syns.load_state(state["syns"])
        self._acks.load_state(state["acks"])
        self.packets_seen = int(state["packets_seen"])
        self._closed_ack_window = None
        self._open.clear()
        self._track_open_window()
