"""The deployed system as one co-scheduled runtime.

The examples drive the stages sequentially (run the pipeline, then
drain analytics, then render). The real deployment runs everything
*concurrently*: DPDK workers poll their queues while the analytics
threads drain ZeroMQ and the frontend streams frames. This module
reproduces that shape on the EAL scheduler — every stage is an lcore,
packets are fed in bursts, and all stages make progress interleaved,
so queue depths and HWM drops behave as they would live.

Typical use::

    runtime = RuruRuntime.build(generator.plan)
    report = runtime.run(generator.packets())
    report.tsdb.query(...)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.core.config import PipelineConfig
from repro.dpdk.eal import Eal
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.geo.asn import AsnDatabase
from repro.geo.builder import SyntheticGeoPlan
from repro.geo.database import GeoDatabase
from repro.mq.codec import decode_enriched
from repro.mq.socket import SubSocket
from repro.net.packet import Packet
from repro.stack import build_enrichment_dbs, build_live_stack
from repro.tsdb.database import TimeSeriesDatabase


@dataclass
class RuntimeReport:
    """Everything a run produced, one handle per tier."""

    pipeline_stats: object
    tsdb: TimeSeriesDatabase
    map_view: LiveMapView
    channel: WebSocketChannel
    anomalies: List = field(default_factory=list)
    frontend_dropped: int = 0

    @property
    def measurements(self) -> int:
        return self.pipeline_stats.measurements


class _FrontendPump:
    """Lcore body: drain the enriched SUB into the live map."""

    def __init__(self, sub: SubSocket, view: LiveMapView):
        self.sub = sub
        self.view = view
        self.last_ns = 0

    def poll(self, max_messages: int = 128) -> int:
        handled = 0
        for message in self.sub.recv_all(max_messages):
            measurement = decode_enriched(message.payload[0])
            self.view.add_measurement(measurement, measurement.timestamp_ns)
            self.view.tick(measurement.timestamp_ns)
            self.last_ns = max(self.last_ns, measurement.timestamp_ns)
            handled += 1
        return handled


class RuruRuntime:
    """All tiers wired and co-scheduled on one EAL.

    Args:
        geo / asn: enrichment databases.
        config: pipeline tunables.
        with_anomaly_detection: attach the three detectors.
        analytics_workers: enrichment worker pool size.
        map_fps: live-map frame rate.
    """

    def __init__(
        self,
        geo: GeoDatabase,
        asn: AsnDatabase,
        config: Optional[PipelineConfig] = None,
        with_anomaly_detection: bool = True,
        analytics_workers: int = 4,
        map_fps: int = 30,
    ):
        self.config = config or PipelineConfig()
        self.stack = build_live_stack(
            geo_asn=(geo, asn),
            config=self.config,
            anomaly=with_anomaly_detection,
            analytics_workers=analytics_workers,
            frontend_hwm=10_000,
        )
        self.service = self.stack.service
        self.manager = self.stack.anomaly
        self.pipeline = self.stack.pipeline
        self.channel = WebSocketChannel(name="live-map")
        self.map_view = LiveMapView(channel=self.channel, fps=map_fps)
        self._frontend_sub = self.stack.frontend
        self._pump = _FrontendPump(self._frontend_sub, self.map_view)

        # One EAL for every stage: rx workers + analytics + frontend.
        self.eal = Eal()
        for worker in self.pipeline.workers:
            self.eal.launch(worker.poll, role=f"rx-q{worker.queue_id}")
        self.eal.launch(self.service.poll, role="analytics")
        self.eal.launch(self._pump.poll, role="frontend")

    @classmethod
    def build(
        cls,
        plan: Optional[SyntheticGeoPlan] = None,
        country_accuracy: float = 0.98,
        **kwargs,
    ) -> "RuruRuntime":
        """Construct with synthetic databases over *plan*."""
        geo, asn = build_enrichment_dbs(
            plan=plan, country_accuracy=country_accuracy
        )
        return cls(geo, asn, **kwargs)

    def run(self, packets: Iterable[Packet], feed_batch: int = 128) -> RuntimeReport:
        """Feed the stream with all stages co-scheduled; returns the report.

        Every *feed_batch* packets, each lcore gets one poll round —
        so analytics and the frontend progress while rx queues still
        hold packets, exactly as separate cores would.
        """
        batch = []
        for packet in packets:
            batch.append(packet)
            if len(batch) >= feed_batch:
                self.pipeline.offer_burst(batch)
                self.eal.step_all()
                batch = []
        self.pipeline.offer_burst(batch)
        # Drain: keep scheduling until nothing moves anywhere.
        self.eal.run_until_idle()
        self.service.finish()
        self.eal.run_until_idle()
        self.pipeline._merge_worker_stats()
        self.map_view.flush_frame(self._pump.last_ns)

        anomalies = []
        if self.manager is not None:
            anomalies = self.manager.finish(now_ns=self._pump.last_ns)
        return RuntimeReport(
            pipeline_stats=self.pipeline.stats,
            tsdb=self.service.tsdb,
            map_view=self.map_view,
            channel=self.channel,
            anomalies=anomalies,
            frontend_dropped=self._frontend_sub.dropped,
        )

    def status(self) -> dict:
        """A JSON-able operations snapshot of every tier.

        The shape an ops endpoint (or the demo's status header) would
        expose: measurement counters, queue pressure, storage size,
        frontend pacing.
        """
        summary = self.pipeline.stats.summary()
        return {
            "pipeline": {
                **summary,
                "queue_balance": self.pipeline.queue_balance(),
                "flow_table_occupancy": self.pipeline.flow_table_occupancy(),
            },
            "analytics": {
                "records_in": self.service.records_in,
                "enriched": self.service.enriched_count,
                "filtered_out": self.service.filtered_out,
                "input_queue_depth": len(self.service.pull),
            },
            "tsdb": {
                "points": self.service.tsdb.total_points(),
                "series": {
                    name: count
                    for name, count in self.service.tsdb.cardinality().items()
                },
            },
            "frontend": {
                "frames_sent": self.map_view.frames_sent,
                "active_arcs": self.map_view.active_arc_count,
                "arcs_dropped": self.map_view.arcs_dropped,
                "feed_bytes": self.channel.bytes_to_client,
                "colors": self.map_view.color_histogram(),
            },
        }
