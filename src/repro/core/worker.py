"""Per-queue processing worker.

Ruru allocates "different DPDK processing threads … on separate CPU
cores", one per receive queue. A :class:`QueueWorker` is that thread's
body: poll the queue for a burst of mbufs, feed each frame's decode —
done once, at the NIC, and carried on the mbuf — to the handshake
tracker, free the mbuf, and periodically sweep the flow table. Emitted
measurements go to the worker's sink — in the full pipeline, a
ZeroMQ-style PUSH socket.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.config import PipelineConfig
from repro.core.handshake import HandshakeTracker, MeasurementSink
from repro.core.stats import PipelineStats
from repro.net.parser import PacketParser, ParseError
from repro.dpdk.nic import NicPort


class QueueWorker:
    """Drains one rx queue into one handshake tracker."""

    def __init__(
        self,
        nic: NicPort,
        queue_id: int,
        config: Optional[PipelineConfig] = None,
        sink: Optional[MeasurementSink] = None,
        pipeline_stats: Optional[PipelineStats] = None,
        observers: Optional[List[Callable]] = None,
        tracer=None,
    ):
        self.nic = nic
        self.queue_id = queue_id
        self.config = config or PipelineConfig()
        # Unused by the poll loop: frames arrive decoded by the NIC
        # (Mbuf.decoded). perfbench/tracing.py still wraps
        # ``worker.parser.parse``; drop this together with that wrap.
        self.parser = PacketParser()
        self.tracker = HandshakeTracker(
            config=self.config, queue_id=queue_id, sink=sink
        )
        self.pipeline_stats = pipeline_stats
        # In-pipeline taps (e.g. the SYN-flood detector) see every
        # successfully parsed packet, after the tracker.
        self.observers: List[Callable] = list(observers or [])
        # Stage tracing (repro.obs.trace.Tracer); None keeps the poll
        # loop on the untraced fast path with a single attribute check.
        self.tracer = tracer
        self.packets_processed = 0
        self.packets_sampled_out = 0
        self._latest_ns = 0

    def poll(self) -> int:
        """One poll iteration: process up to one burst; returns count.

        This is the callable handed to :meth:`repro.dpdk.eal.Eal.launch`.
        """
        mbufs = self.nic.rx_burst(self.queue_id, self.config.burst_size)
        if not mbufs:
            return 0
        tracer = self.tracer
        if tracer is None:
            self._process_burst(mbufs)
            self.tracker.maybe_sweep(self._latest_ns)
            return len(mbufs)
        # Burst granularity only: the per-frame span a decoded frame
        # earns is the NIC's sampled ``nic.decode``; tracking is all the
        # worker does per frame, and this span brackets exactly that.
        with tracer.span("worker.poll", queue=self.queue_id, burst=len(mbufs)):
            self._process_burst(mbufs)
            # Only an actual sweep earns a span; the interval check
            # itself is too cheap to be worth recording every poll.
            if self.tracker.sweep_due(self._latest_ns):
                with tracer.span("flow_table.sweep", queue=self.queue_id):
                    self.tracker.maybe_sweep(self._latest_ns)
            else:
                self.tracker.maybe_sweep(self._latest_ns)
        return len(mbufs)

    def _process_burst(self, mbufs) -> None:
        """Track every frame of one burst, then free its mbufs."""
        modulus = self.config.flow_sample_modulus
        process = self.tracker.process
        observers = self.observers
        latest_ns = self._latest_ns
        sampled_out = 0
        for mbuf in mbufs:
            if mbuf.timestamp_ns > latest_ns:
                latest_ns = mbuf.timestamp_ns
            # Flow sampling: the symmetric RSS hash selects whole flows
            # (both directions share the hash), so a sampled-out flow
            # costs the NIC's one decode but never any tracker state.
            if modulus > 1 and mbuf.rss_hash % modulus:
                sampled_out += 1
            else:
                parsed = mbuf.decoded
                if isinstance(parsed, ParseError):
                    if self.pipeline_stats is not None:
                        self.pipeline_stats.record_parse_error(parsed.reason)
                else:
                    process(parsed, mbuf.rss_hash)
                    for observer in observers:
                        observer(parsed)
        self.nic.pool.free_bulk(mbufs)
        self.packets_processed += len(mbufs)
        self.packets_sampled_out += sampled_out
        self._latest_ns = latest_ns

    @property
    def stats(self):
        """This worker's tracker counters."""
        return self.tracker.stats

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot this worker's counters and its handshake tracker."""
        return {
            "queue_id": self.queue_id,
            "packets_processed": self.packets_processed,
            "packets_sampled_out": self.packets_sampled_out,
            "latest_ns": self._latest_ns,
            "tracker": self.tracker.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        if int(state["queue_id"]) != self.queue_id:
            raise ValueError(
                f"worker state for queue {state['queue_id']} loaded "
                f"into queue {self.queue_id}"
            )
        self.packets_processed = int(state["packets_processed"])
        self.packets_sampled_out = int(state["packets_sampled_out"])
        self._latest_ns = int(state["latest_ns"])
        self.tracker.load_state(state["tracker"])
