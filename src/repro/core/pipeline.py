"""End-to-end measurement pipeline — Fig 2 of the paper.

Wiring: frames → :class:`~repro.dpdk.nic.NicPort` (symmetric RSS into
``num_queues`` rx rings) → one :class:`~repro.core.worker.QueueWorker`
per queue on an :class:`~repro.dpdk.eal.Eal` lcore → latency records
out through a sink (in the full deployment, the ZeroMQ publisher that
:mod:`repro.analytics` subscribes to).

Feeding is batched: a burst of frames is offered to the NIC, then
every worker lcore is polled until the rings drain, then the next
burst — the software analogue of workers keeping up with line rate
while bounded rings absorb bursts. Ring overflow and mbuf exhaustion
surface as NIC drops in the stats, exactly as ``imissed`` would on
hardware.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.core.config import PipelineConfig
from repro.core.handshake import MeasurementSink
from repro.core.latency import LatencyRecord
from repro.core.stats import PipelineStats
from repro.core.worker import QueueWorker
from repro.dpdk.clock import VirtualClock
from repro.dpdk.eal import Eal
from repro.dpdk.mbuf import MbufPool
from repro.dpdk.nic import NicPort
from repro.net.packet import Packet
from repro.net.pcap import PcapReader


class RuruPipeline:
    """The assembled Ruru fast path.

    Args:
        config: pipeline tunables; validated on construction.
        sink: receives every :class:`LatencyRecord`. When None,
            records are collected in :attr:`measurements`.
        feed_batch: frames offered to the NIC between worker polls.
        telemetry: a :class:`repro.obs.Telemetry` handle. When given,
            the pipeline binds its clock to the tracer, registers every
            counter with the metrics registry, traces the hot path, and
            drives the self-monitoring exporter from the drain loop.
        supervisor: a :class:`repro.resilience.Supervisor`. When given,
            every worker poll body is wrapped so a crash is caught,
            counted as a restart and retried next round — with the
            worker's ring and flow table intact, so accepted packets
            are never lost to a crash.
        poll_wrapper: ``(poll, role) -> poll`` applied to each worker
            poll body *inside* the supervision boundary; the chaos
            harness uses it to inject worker crashes.
        admission: an :class:`repro.overload.OverloadController`. When
            given, the NIC runs its priority triage on every frame and
            frames shed by policy are counted as ``packets_shed``
            instead of ``nic_drops``.

    Frames enter through :meth:`offer_burst` (``offer`` is a burst of
    one), which hands the whole burst to
    :meth:`NicPort.receive_burst <repro.dpdk.nic.NicPort.receive_burst>`.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        sink: Optional[MeasurementSink] = None,
        feed_batch: int = 256,
        observers=None,
        telemetry=None,
        supervisor=None,
        poll_wrapper=None,
        admission=None,
    ):
        self.config = config or PipelineConfig()
        self.config.validate()
        if feed_batch <= 0:
            raise ValueError("feed_batch must be positive")
        self.feed_batch = feed_batch
        self.clock = VirtualClock()
        self.measurements: List[LatencyRecord] = []
        self._sink: MeasurementSink = sink or self.measurements.append
        self.stats = PipelineStats()
        self.quiesced = False
        self.telemetry = telemetry
        tracer = None
        if telemetry is not None:
            telemetry.bind_clock(self.clock)
            tracer = telemetry.tracer

        self.admission = admission
        pool = MbufPool(size=self.config.mbuf_pool_size, name="rx_pool")
        self.nic = NicPort(
            num_queues=self.config.num_queues,
            rss_key=self.config.rss_key,
            mbuf_pool=pool,
            queue_capacity=self.config.queue_capacity,
            admission=admission,
            tracer=tracer,
        )
        self.eal = Eal()
        self.supervisor = supervisor
        self.workers: List[QueueWorker] = []
        for queue_id in range(self.config.num_queues):
            worker = QueueWorker(
                nic=self.nic,
                queue_id=queue_id,
                config=self.config,
                sink=self._sink,
                pipeline_stats=self.stats,
                observers=list(observers or []),
                tracer=tracer,
            )
            self.workers.append(worker)
            role = f"rx-worker-q{queue_id}"
            poll = worker.poll
            if poll_wrapper is not None:
                poll = poll_wrapper(poll, role)
            if supervisor is not None:
                poll = supervisor.supervise(poll, role)
            self.eal.launch(poll, role=role)
        if telemetry is not None:
            self._bind_registry(telemetry.registry)

    # -- feeding -----------------------------------------------------------

    def offer(self, packet: Packet) -> bool:
        """Offer one frame to the NIC; False if the NIC dropped it."""
        return self.offer_burst((packet,)) == 1

    def offer_burst(self, packets: Sequence[Packet]) -> int:
        """Offer a burst of frames to the NIC; returns how many it queued.

        Every frame is counted exactly once: rejected while quiesced,
        queued, shed by the admission controller, or dropped by the NIC
        (ring full, pool empty). The virtual clock ends at the burst's
        latest capture time.
        """
        if not packets:
            return 0
        stats = self.stats
        if self.quiesced:
            stats.packets_rejected_quiesced += len(packets)
            return 0
        nic = self.nic
        shed_before = nic.shed
        queued = nic.receive_burst(packets)
        shed = nic.shed - shed_before
        stats.packets_offered += len(packets)
        stats.packets_queued += queued
        stats.packets_shed += shed
        stats.nic_drops += len(packets) - queued - shed
        self.clock.advance_to(max(packet.timestamp_ns for packet in packets))
        return queued

    def quiesce(self) -> None:
        """Stop accepting frames at the NIC (step one of graceful drain).

        Frames already in the rx rings stay there for :meth:`drain`;
        new offers are rejected and counted, never silently dropped.
        """
        self.quiesced = True

    def drain(self) -> None:
        """Poll all workers until every rx ring is empty."""
        supervisor = self.supervisor
        restarts_seen = supervisor.total_restarts if supervisor else 0
        while self.nic.pending():
            self.stats.scheduling_rounds += 1
            if self.eal.step_all() == 0:
                if supervisor is not None and (
                    supervisor.total_restarts > restarts_seen
                ):
                    # The round did no work because a worker crashed
                    # and was restarted; its ring is intact — poll on.
                    restarts_seen = supervisor.total_restarts
                    continue
                # Rings non-empty but no worker made progress: a bug,
                # not a condition to spin on.
                raise RuntimeError("pipeline stalled with packets pending")

    def run_packets(
        self, packets: Iterable[Packet], shutdown_flag=None
    ) -> PipelineStats:
        """Run a packet stream through the full pipeline to completion.

        Args:
            packets: the frame stream to feed.
            shutdown_flag: optional zero-arg callable polled between
                feed batches; when it turns truthy, the stream is
                abandoned and the rings drain to empty — the
                SIGINT/SIGTERM path of the long-running CLI commands.
        """
        batch: List[Packet] = []
        for packet in packets:
            batch.append(packet)
            if len(batch) >= self.feed_batch:
                self._feed_and_drain(batch)
                batch.clear()
                if shutdown_flag is not None and shutdown_flag():
                    break
        # The trailing partial batch honours the flag too: a shutdown
        # raised mid-stream must not feed one more burst. An empty
        # batch still drains (rings may hold frames from `offer`).
        if not batch or shutdown_flag is None or not shutdown_flag():
            self._feed_and_drain(batch)
        self._merge_worker_stats()
        return self.stats

    def _feed_and_drain(self, batch: List[Packet]) -> None:
        """Offer one feed batch, drain the rings, drive the exporter."""
        # The run_packets path has no stage graph driving the overload
        # controller, so the control loop ticks here instead; under the
        # graph, OverloadStage.process ticks it and this is never hit.
        if self.admission is not None:
            self.admission.update(self.clock.now_ns)
        telemetry = self.telemetry
        if telemetry is None:
            self.offer_burst(batch)
            self.drain()
            return
        tracer = telemetry.tracer
        with tracer.span("nic.receive", batch=len(batch)):
            self.offer_burst(batch)
        with tracer.span("pipeline.drain"):
            self.drain()
        telemetry.tick(self.clock.now_ns)

    def run_pcap(self, path: Union[str, Path]) -> PipelineStats:
        """Replay a pcap trace through the pipeline."""
        with PcapReader(path) as reader:
            return self.run_packets(reader)

    # -- reporting -----------------------------------------------------------

    def _fold_worker_counters(self, stats: PipelineStats) -> None:
        merged = type(stats.tracker)()
        for worker in self.workers:
            merged.merge(worker.stats)
        stats.tracker = merged
        # Worker-local counters are recomputed (not accumulated) so
        # repeated run_packets calls on one pipeline never double-count.
        stats.packets_processed = sum(
            worker.packets_processed for worker in self.workers
        )
        stats.packets_sampled_out = sum(
            worker.packets_sampled_out for worker in self.workers
        )
        stats.queue_share = self.nic.stats.queue_balance()

    def _merge_worker_stats(self) -> None:
        self._fold_worker_counters(self.stats)

    def stats_snapshot(self) -> "PipelineStats":
        """Folded whole-pipeline stats without mutating :attr:`stats`.

        Callers that drive the stage graph directly (``ruru prof``,
        the scenario runner) never pass through :meth:`run_packets`'s
        trailing merge, so this is their read path for worker counters.
        """
        return self._stats_snapshot()

    def _stats_snapshot(self) -> PipelineStats:
        """Folded stats copy; the observable :attr:`stats` untouched."""
        snapshot = PipelineStats()
        snapshot.load_state(self.stats.state_dict())
        self._fold_worker_counters(snapshot)
        return snapshot

    def _bind_registry(self, registry) -> None:
        """Publish every pipeline/NIC/worker counter through *registry*.

        The binder body lives in :mod:`repro.stack.metrics` with the
        other tiers' binders; imported lazily because the stack package
        imports this module.
        """
        from repro.stack.metrics import bind_pipeline_metrics

        bind_pipeline_metrics(self, registry)

    def flow_table_occupancy(self) -> List[int]:
        """In-flight handshake count per queue (flood diagnostics)."""
        return [len(worker.tracker.table) for worker in self.workers]

    # -- durability ----------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the fast path: virtual clock, whole-pipeline stats,
        NIC port counters, and every worker's flow table.

        Taken between feed batches the rx rings are empty, so this is a
        consistent cut of the measurement state; frames in flight at a
        ``kill -9`` are the bounded loss recovery reports explicitly.

        Snapshotting is side-effect free: worker counters are folded
        into a stats *copy*, so taking a checkpoint never mutates the
        observable :attr:`stats`.
        """
        nic = self.nic.stats
        return {
            "clock_ns": self.clock.now_ns,
            "quiesced": self.quiesced,
            "stats": self._stats_snapshot().state_dict(),
            "nic_stats": {
                "ipackets": nic.ipackets,
                "ibytes": nic.ibytes,
                "imissed": nic.imissed,
                "ierrors": nic.ierrors,
                "q_ipackets": {str(q): n for q, n in nic.q_ipackets.items()},
            },
            "workers": [worker.state_dict() for worker in self.workers],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this pipeline.

        The pipeline must be built with the same queue count; handshakes
        that were in flight at checkpoint time resume exactly where they
        were, so a SYN seen before the crash still yields a measurement
        when its ACK arrives after recovery.
        """
        workers_state = state["workers"]
        if len(workers_state) != len(self.workers):
            raise ValueError(
                f"checkpoint has {len(workers_state)} workers, "
                f"pipeline has {len(self.workers)}"
            )
        self.clock.advance_to(int(state["clock_ns"]))
        self.quiesced = bool(state["quiesced"])
        self.stats.load_state(state["stats"])
        nic_state = state["nic_stats"]
        nic = self.nic.stats
        nic.ipackets = int(nic_state["ipackets"])
        nic.ibytes = int(nic_state["ibytes"])
        nic.imissed = int(nic_state["imissed"])
        nic.ierrors = int(nic_state["ierrors"])
        nic.q_ipackets = {
            int(q): int(n) for q, n in nic_state["q_ipackets"].items()
        }
        for worker, worker_state in zip(self.workers, workers_state):
            worker.load_state(worker_state)

    def queue_balance(self) -> List[float]:
        """Fraction of frames RSS sent to each queue."""
        return self.nic.stats.queue_balance()
