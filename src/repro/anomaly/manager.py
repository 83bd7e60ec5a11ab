"""Fan one measurement stream into every detector; collect events.

The manager is the "simple Ruru module" shape the paper describes:
subscribe to the enriched stream, run detectors, surface events to the
operator (here: a list plus an optional callback, e.g. a WebSocket
alert channel).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.analytics.enricher import EnrichedMeasurement
from repro.anomaly.conn_count import ConnectionCountDetector
from repro.anomaly.events import AnomalyEvent, Severity
from repro.anomaly.latency_spike import LatencySpikeDetector
from repro.anomaly.path_drift import PathDriftDetector
from repro.anomaly.syn_flood import SynFloodDetector
from repro.net.parser import ParsedPacket

AlertSink = Callable[[AnomalyEvent], None]


class AnomalyManager:
    """Bundles the three paper detectors behind two feed points.

    * :meth:`observe_measurement` — enriched measurements (latency
      spikes, connection surges); subscribe it to the analytics PUB.
    * :meth:`observe_packet` — parsed packets (SYN floods); register
      it as a pipeline worker observer.
    """

    def __init__(
        self,
        latency: Optional[LatencySpikeDetector] = None,
        syn_flood: Optional[SynFloodDetector] = None,
        conn_count: Optional[ConnectionCountDetector] = None,
        path_drift: Optional[PathDriftDetector] = None,
        with_path_drift: bool = True,
        alert_sink: Optional[AlertSink] = None,
    ):
        self.latency = latency or LatencySpikeDetector()
        self.syn_flood = syn_flood or SynFloodDetector()
        self.conn_count = conn_count or ConnectionCountDetector()
        self.path_drift = path_drift or (
            PathDriftDetector() if with_path_drift else None
        )
        self.alert_sink = alert_sink
        self.alerts_raised = 0

    def observe_measurement(self, measurement: EnrichedMeasurement) -> None:
        """Feed one enriched measurement to the measurement detectors."""
        events = [
            self.latency.observe(measurement),
            self.conn_count.observe(measurement),
        ]
        if self.path_drift is not None:
            events.append(self.path_drift.observe(measurement))
        for event in events:
            if event is not None:
                self._alert(event)

    def observe_packet(self, packet: ParsedPacket) -> None:
        """Feed one parsed packet to the packet detectors."""
        events = self.syn_flood.events
        before = len(events)
        self.syn_flood.on_packet(packet)
        if len(events) > before:
            for event in events[before:]:
                self._alert(event)

    def _alert(self, event: AnomalyEvent) -> None:
        self.alerts_raised += 1
        if self.alert_sink is not None:
            self.alert_sink(event)

    def finish(self, now_ns: Optional[int] = None) -> List[AnomalyEvent]:
        """Close all detectors; returns every event, most severe first."""
        events: List[AnomalyEvent] = []
        events.extend(self.latency.finish(now_ns))
        events.extend(self.syn_flood.finish(now_ns))
        events.extend(self.conn_count.finish(now_ns))
        if self.path_drift is not None:
            events.extend(self.path_drift.finish(now_ns))
        events.sort(key=lambda e: (-int(e.severity), e.start_ns))
        return events

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every detector's learned state (baselines, windows,
        reservoirs) for a checkpoint. Confirmed events were already
        delivered through the alert sink; unconfirmed groups restart
        clean — see the per-detector docstrings."""
        return {
            "alerts_raised": self.alerts_raised,
            "latency": self.latency.state_dict(),
            "syn_flood": self.syn_flood.state_dict(),
            "conn_count": self.conn_count.state_dict(),
            "path_drift": (
                self.path_drift.state_dict()
                if self.path_drift is not None
                else None
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.alerts_raised = int(state["alerts_raised"])
        self.latency.load_state(state["latency"])
        self.syn_flood.load_state(state["syn_flood"])
        self.conn_count.load_state(state["conn_count"])
        if self.path_drift is not None and state["path_drift"] is not None:
            self.path_drift.load_state(state["path_drift"])

    def events_of_kind(self, kind: str) -> List[AnomalyEvent]:
        """All events a given detector produced so far."""
        pools = {
            "latency-spike": self.latency.events,
            "syn-flood": self.syn_flood.events,
            "connection-surge": self.conn_count.events,
            "path-drift": self.path_drift.events if self.path_drift else [],
        }
        return list(pools.get(kind, []))
