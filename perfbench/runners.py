"""Closed-loop runners: one for the in-process stack, one for shards.

A runner builds the system under test (timed as set-up), feeds one
whole capture through it, drains it, and closes every ledger. The next
``FEED_BATCH`` frames go in as soon as the previous call returns and a
host-speed reference slice has run (see ``perfbench.reference``); every
time a pass reports is on the system's own clock, with the slices cut
out.
"""

from __future__ import annotations

import bisect
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mq.codec import decode_enriched
from repro.obs import Telemetry
from repro.shard.runtime import ShardedRuntime
from repro.stack.builder import StackBuilder, build_shard_analytics

from perfbench.checks import ledger
from perfbench.reference import Reference, local_slowdowns
from perfbench.tracing import (
    SpanRecorder,
    instrument_shard_parent,
    instrument_stack,
)
from perfbench.workloads import QUEUES, Inputs, Workload, batches

#: Batches fed before the clock starts. A freshly built stack's first
#: batches pay one-off costs and carry a capture start's handshake burst
#: (no flow is established yet); a long-running tap pays neither.
WARMUP_BATCHES = 8


@dataclass
class PassResult:
    """What one pass over the capture measured and proved."""

    #: Frames and delivered records of the timed batches (after the
    #: warm-up); the ledgers cover the whole capture.
    frames: int
    timed_records: int
    wall_ns: int
    cpu_self_s: float
    cpu_children_s: float
    batch_ns: List[int]
    latency_ns: List[int]
    measurements: List
    records_emitted: int
    frames_failed: int
    records_failed: int
    failures: List[str]
    #: Component counters read after the drain (per-layer ratios).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Each batch's slowdown (``reference.local_slowdowns``), and that of
    #: the batch of each ``latency_ns`` sample.
    batch_slowdown: List[float] = field(default_factory=list)
    latency_slowdown: List[float] = field(default_factory=list)
    #: The pass's slowdown: its batch time over that time at nominal speed.
    slowdown: float = 1.0
    #: Filled in by the checks, which then drop ``measurements``.
    digest: str = ""
    rtt_errors: List[int] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return self.cpu_self_s + self.cpu_children_s


def _children_cpu() -> float:
    times = os.times()
    return times.children_user + times.children_system


class _Runner:
    def __init__(self, workload: Workload, inputs: Inputs, seed: int, state_root: str):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.state_root = state_root
        self.batches = batches(inputs.frames)
        self.reference = Reference()
        # A record belongs to the earliest batch whose last frame is no
        # earlier than the record's completing ACK.
        self._batch_last_ns = [chunk[-1].timestamp_ns for chunk in self.batches]

    def clock(self) -> int:
        """Nanoseconds on the system's clock: wall time without slices."""
        return time.perf_counter_ns() - self.reference.paused_ns

    def _timed(self):
        """Start of a timed stretch: (reference mark, clock, CPU)."""
        return self.reference.mark(), self.clock(), time.process_time_ns()

    def _own_cpu_s(self, timed) -> float:
        """This process's CPU since *timed*, without the slices'."""
        mark, _, cpu = timed
        spent = time.process_time_ns() - cpu - self.reference.cpu_since(mark)
        return spent / 1e9

    def _latencies(self, delivered, starts, slowdowns):
        """Delivery time minus the start of the record's batch, for the
        records of timed batches (``starts`` and ``slowdowns`` have one
        entry per batch after the warm-up); returns the latencies and
        the slowdown of each one's batch."""
        last_ns = self._batch_last_ns
        latencies, scales = [], []
        for at, measurement in delivered:
            index = bisect.bisect_left(last_ns, measurement.timestamp_ns)
            index = min(index, len(last_ns) - 1) - WARMUP_BATCHES
            if index >= 0:
                latencies.append(at - starts[index])
                scales.append(slowdowns[index])
        return latencies, scales

    def _scale(self, result: PassResult, delivered, starts, slowdowns) -> PassResult:
        """Attach the host's slowdown to a pass's batches and latencies."""
        result.latency_ns, result.latency_slowdown = self._latencies(
            delivered, starts, slowdowns
        )
        result.batch_slowdown = slowdowns
        nominal_ns = sum(ns / slow for ns, slow in zip(result.batch_ns, slowdowns))
        result.slowdown = sum(result.batch_ns) / nominal_ns
        return result

    def _warm_up(self, offer, after) -> None:
        """Feed the first ``WARMUP_BATCHES`` before any clock starts."""
        for chunk in self.batches[:WARMUP_BATCHES]:
            offer(chunk)
            after()

    def _feed(self, offer, after, recorder: Optional[SpanRecorder], name: str):
        """Feed the batches after the warm-up through *offer*, calling
        *after* between batches, then one reference slice; returns
        batch starts and durations on the system's clock, and each
        batch's slowdown."""
        clock = self.clock
        reference = self.reference
        starts: List[int] = []
        durations: List[int] = []
        slices: List[int] = []
        for chunk in self.batches[WARMUP_BATCHES:]:
            start = clock()
            if recorder is None:
                offer(chunk)
                after()
            else:
                with recorder.span(name):
                    offer(chunk)
                    after()
            durations.append(clock() - start)
            starts.append(start)
            slices.append(reference.slice())
        return starts, durations, local_slowdowns(slices)

    @property
    def timed_frames(self) -> int:
        return sum(len(chunk) for chunk in self.batches[WARMUP_BATCHES:])


class StackRunner(_Runner):
    """``StackBuilder`` with the durable (``ruru live``) options."""

    def build(self):
        state_dir = tempfile.mkdtemp(prefix="stack-", dir=self.state_root)
        assembly = (
            StackBuilder()
            .generator(self.inputs.generator)
            .queues(QUEUES)
            .telemetry(Telemetry())
            .analytics()
            .faults("clean", seed=self.seed)
            .anomaly("stream")
            .topk(capacity=100)
            .frontend(hwm=1 << 20)
            .durable(state_dir)
        )
        if self.workload.overload:
            assembly.overload()
        return assembly.build()

    def discard(self, stack) -> None:
        stack.wal.close()
        shutil.rmtree(stack.state_dir, ignore_errors=True)

    def run_pass(self, stack, recorder: Optional[SpanRecorder] = None) -> PassResult:
        clock = self.clock
        delivered: List = []
        stack.graph.get("frontend").observers.append(
            lambda measurement: delivered.append((clock(), measurement))
        )
        workers = stack.pipeline.workers

        def after():
            if recorder is not None:
                recorder.peak(
                    "core.flow_table.peak_entries",
                    sum(len(worker.tracker.table) for worker in workers),
                )

        self._warm_up(stack.process_batch, after)
        warm_delivered = len(delivered)
        patcher = None if recorder is None else instrument_stack(recorder, stack)
        timed = self._timed()
        try:
            starts, durations, slowdowns = self._feed(
                stack.process_batch, after, recorder, "stack.process_batch"
            )
            if recorder is None:
                stack.drain()
            else:
                with recorder.span("stack.drain"):
                    stack.drain()
            wall_ns = clock() - timed[1]
            cpu_s = self._own_cpu_s(timed)
        finally:
            if patcher is not None:
                patcher.undo()
        result = self._account(
            stack, delivered, warm_delivered, durations, wall_ns, cpu_s,
        )
        return self._scale(result, delivered, starts, slowdowns)

    def _account(
        self, stack, delivered, warm_delivered, durations, wall_ns, cpu_s
    ) -> PassResult:
        pipeline, service, sub = stack.pipeline, stack.service, stack.frontend
        stats = pipeline.stats
        folded = pipeline.stats_snapshot()
        fed = len(self.inputs.frames)
        emitted = folded.tracker.measurements
        failures = ledger(
            "frames fed",
            fed,
            {
                "offered": stats.packets_offered,
                "rejected": stats.packets_rejected_quiesced,
            },
        )
        failures += ledger(
            "frames",
            stats.packets_offered,
            {
                "processed": folded.packets_processed,
                "dropped": stats.nic_drops,
                "shed": stats.packets_shed,
            },
        )
        failures += ledger(
            "records",
            emitted,
            {
                "delivered": len(delivered),
                "mq_dropped": service.pull.dropped,
                "analytics_dropped": service.dropped_records,
                "deadlettered": service.deadlettered,
                "frontend_dropped": sub.dropped,
            },
        )
        conservation = service.conservation_ledger()
        if not conservation.ok:
            failures.append(f"analytics {conservation}")
        checkpointer = stack.checkpointer
        controller = stack.overload
        counters = {
            "tracker.packets": folded.tracker.packets,
            "tracker.stray_ack": folded.tracker.stray_ack,
            "enrich.enriched": sum(e.stats.enriched for e in service.enrichers),
            "enrich.geo_misses": sum(e.stats.geo_misses for e in service.enrichers),
            "mq.hwm_drops": service.pull.dropped,
            "checkpoint.count": checkpointer.checkpoints_written,
            "checkpoint.bytes": checkpointer.bytes_written,
            "overload.transitions": (
                len(controller.transitions) if controller is not None else 0
            ),
        }
        return PassResult(
            frames=self.timed_frames,
            timed_records=len(delivered) - warm_delivered,
            wall_ns=wall_ns,
            cpu_self_s=cpu_s,
            cpu_children_s=0.0,
            batch_ns=durations,
            latency_ns=[],
            measurements=[m for _, m in delivered],
            records_emitted=emitted,
            frames_failed=(
                stats.nic_drops + stats.packets_shed
                + stats.packets_rejected_quiesced
            ),
            records_failed=emitted - len(delivered),
            failures=failures,
            counters=counters,
        )


@dataclass
class ShardRig:
    runtime: ShardedRuntime
    service: object
    frontend: object


class ShardRunner(_Runner):
    """``build_sharded_runtime(shards=1, analytics="parent")`` in
    lockstep mode, with a frontend subscriber on the parent's
    analytics service."""

    def build(self) -> ShardRig:
        made = {}
        make_service = build_shard_analytics()

        def make_analytics():
            service = make_service()
            made["service"] = service
            made["frontend"] = service.subscribe_frontend(hwm=1 << 20)
            return service

        runtime = ShardedRuntime(
            1, analytics="parent", make_analytics=make_analytics
        )
        runtime.start()  # forks the worker shard
        return ShardRig(runtime, made["service"], made["frontend"])

    def discard(self, rig: ShardRig) -> None:
        rig.runtime.close()

    def run_pass(self, rig: ShardRig, recorder: Optional[SpanRecorder] = None) -> PassResult:
        clock = self.clock
        runtime, service, sub = rig.runtime, rig.service, rig.frontend
        delivered: List = []
        decode = decode_enriched

        def pump():
            for message in sub.recv_all():
                delivered.append((clock(), decode(message.payload[0])))

        self._warm_up(runtime.offer, pump)
        warm_delivered = len(delivered)
        patcher = None
        if recorder is not None:
            decode = recorder.wrap("frontend.decode", decode_enriched)
            patcher = instrument_shard_parent(recorder, runtime, service)
        timed = self._timed()
        children_before = _children_cpu()
        try:
            starts, durations, slowdowns = self._feed(
                runtime.offer, pump, recorder, "shard.offer"
            )
            if recorder is None:
                report = runtime.drain()
            else:
                with recorder.span("shard.drain"):
                    report = runtime.drain()
            pump()
            wall_ns = clock() - timed[1]
            cpu_self = self._own_cpu_s(timed)
            # The child is reaped inside drain, so its CPU is in now.
            cpu_children = _children_cpu() - children_before
        finally:
            if patcher is not None:
                patcher.undo()
        result = self._account(
            rig, report, delivered, warm_delivered, durations, wall_ns,
            cpu_self, cpu_children,
        )
        return self._scale(result, delivered, starts, slowdowns)

    def _account(
        self, rig, report, delivered, warm_delivered, durations, wall_ns,
        cpu_self, cpu_children,
    ) -> PassResult:
        service, sub = rig.service, rig.frontend
        fed = len(self.inputs.frames)
        books = report.ledger
        records = report.records
        failures = [] if report.ok else ["shard " + "; ".join(report.failed_checks())]
        failures += ledger("frames fed", fed, {"ingested": books.ingested})
        failures += ledger(
            "records",
            records["emitted"],
            {
                "delivered": len(delivered),
                "shard_dropped": records["dropped"],
                "lost_at_crash": records["lost_at_crash"],
                "mq_dropped": service.pull.dropped,
                "analytics_dropped": service.dropped_records,
                "deadlettered": service.deadlettered,
                "frontend_dropped": sub.dropped,
            },
        )
        conservation = service.conservation_ledger()
        if not conservation.ok:
            failures.append(f"analytics {conservation}")
        counters = {
            "enrich.enriched": sum(e.stats.enriched for e in service.enrichers),
            "enrich.geo_misses": sum(e.stats.geo_misses for e in service.enrichers),
            "mq.hwm_drops": service.pull.dropped,
        }
        return PassResult(
            frames=self.timed_frames,
            timed_records=len(delivered) - warm_delivered,
            wall_ns=wall_ns,
            cpu_self_s=cpu_self,
            cpu_children_s=cpu_children,
            batch_ns=durations,
            latency_ns=[],
            measurements=[m for _, m in delivered],
            records_emitted=records["emitted"],
            frames_failed=(
                books.dropped + books.deadlettered + books.shed + books.lost_at_crash
            ),
            records_failed=records["emitted"] - len(delivered),
            failures=failures,
            counters=counters,
        )
