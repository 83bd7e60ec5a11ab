"""Spans from the benchmark's own wrappers around public calls.

Tracing here is from outside the program: the traced run replaces
public methods of the assembled components (and two module-level codec
functions) with timing wrappers, records one span per call, and puts
every original back afterwards. A span is a name, a start, an end and
the index of the span open when it began (its parent). Spans live in
flat arrays while the run lasts and are written out once at exit.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List

import repro.analytics.service as service_module
import repro.stack.stages as stages_module
from repro.dpdk.nic import NicPort

#: The layer each self time is charged to when splitting the workers
#: stage (spans not listed stay with their nearest listed ancestor).
WORKER_PARTS = {
    "net.parse": "parse",
    "dpdk.rss.hash": "rss",
    "dpdk.rx_burst": "ring",
    "core.tracker": "tracker",
    "anomaly.observe_packet": "anomaly",
    "mq.send": "mq",
    "mq.encode": "mq",
}


@dataclass
class SpanTotals:
    count: int = 0
    inclusive_ns: int = 0

    def mean_ns(self) -> float:
        return self.inclusive_ns / self.count if self.count else 0.0


class SpanRecorder:
    """Flat, append-only span store plus named counters and peaks."""

    def __init__(self):
        #: Recording cost one child span adds to its parent's self time
        #: (bookkeeping outside the child's own start..end); see
        #: :meth:`calibrate`.
        self.child_overhead_ns = 0.0
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with one span recorded around every call."""
        ident = self._id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, open_spans = self.parent, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(ident)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block (the benchmark's batch and drain calls)."""
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._open.pop()

    def calibrate(self, calls: int = 20_000, trials: int = 5) -> float:
        """Measure :attr:`child_overhead_ns` on a wrapped no-op.

        Without the correction every traced call would leave its
        bookkeeping in the caller's self time, so a layer that makes
        many traced calls would look slower than it is.
        """
        clock = time.perf_counter_ns
        best = None
        for _ in range(trials):
            probe = SpanRecorder()
            traced = probe.wrap("probe", _noop)
            started = clock()
            for _ in range(calls):
                pass
            empty = clock() - started
            started = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - started
            inside = sum(probe.end) - sum(probe.start)
            outside = (wrapped - empty - inside) / calls
            best = outside if best is None else min(best, outside)
        self.child_overhead_ns = max(0.0, best)
        return self.child_overhead_ns

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def totals(self, split_root: str = "stage.workers"):
        """Per-name call count and inclusive time, plus the self time
        (duration minus children) of everything under *split_root* spans,
        charged per ``WORKER_PARTS``; the root's own self time is its
        ``unattributed`` part."""
        count = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        overhead = self.child_overhead_ns
        children = array("d", [0.0]) * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children[parent] += ends[index] - starts[index] + overhead
        totals: Dict[str, SpanTotals] = {
            name: SpanTotals() for name in self.names
        }
        parts = ["unattributed"] + sorted(set(WORKER_PARTS.values()))
        part_of = {
            self._ids[name]: parts.index(part)
            for name, part in WORKER_PARTS.items()
            if name in self._ids
        }
        root_id = self._ids.get(split_root, -2)
        # Index into ``parts`` that each span's self time goes to, or -1
        # for spans outside every *split_root* span.
        owner = array("b", [-1]) * count
        split = [0.0] * len(parts)
        for index in range(count):
            duration = ends[index] - starts[index]
            own = max(0.0, duration - children[index])
            entry = totals[self.names[names[index]]]
            entry.count += 1
            entry.inclusive_ns += duration
            parent = parents[index]
            if names[index] == root_id:
                owner[index] = 0
            elif parent >= 0 and owner[parent] >= 0:
                owner[index] = part_of.get(names[index], owner[parent])
            if owner[index] >= 0:
                split[owner[index]] += own
        return totals, dict(zip(parts, split))

    def dump(self, path: str) -> None:
        """Write every span to a gzip file: one JSON header line, then
        the four columns as raw arrays (see :func:`load_spans`)."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [
                [column, getattr(self, column).typecode]
                for column in ("name", "start", "end", "parent")
            ],
        }
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in ("name", "start", "end", "parent"):
                getattr(self, column).tofile(handle)


def load_spans(path: str) -> dict:
    """Read a :meth:`SpanRecorder.dump` file back: the header plus one
    array per column (``name`` indexes ``names``; ``parent`` is -1 for
    a root span; ``start``/``end`` are ``perf_counter_ns`` readings)."""
    with gzip.open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for column, typecode in header["columns"]:
            values = array(typecode)
            values.frombytes(handle.read(values.itemsize * header["count"]))
            if header["byteorder"] != sys.byteorder:
                values.byteswap()
            columns[column] = values
    return {"names": header["names"], **columns}


def _noop():
    return None


class Patcher:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def wrap(self, recorder: SpanRecorder, owner, attr: str, name: str) -> None:
        self.replace(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _wrap_analytics(recorder: SpanRecorder, patcher: Patcher, service) -> None:
    for enricher in service.enrichers:
        patcher.wrap(recorder, enricher, "enrich", "analytics.enrich")
    patcher.wrap(recorder, service, "process_measurement", "analytics.process")
    write = recorder.wrap("tsdb.write", service.tsdb.write_batch)

    def write_counted(points):
        recorder.counts["tsdb.points"] += len(points)
        return write(points)

    patcher.replace(service.tsdb, "write_batch", write_counted)


def instrument_stack(recorder: SpanRecorder, stack) -> Patcher:
    """Wrap every layer of a durable in-process stack; returns the undo."""
    patcher = Patcher()
    pipeline, service = stack.pipeline, stack.service
    nic = pipeline.nic
    for stage in stack.graph.stages:
        process = recorder.wrap(f"stage.{stage.name}", stage.process)
        if stage.name == "nic":
            def process_then_sample(ctx, process=process):
                process(ctx)
                # Rings only fill in this stage, so their depth now is
                # the batch's peak occupancy.
                recorder.peak(
                    "dpdk.ring.peak_depth", max(len(q) for q in nic.queues)
                )
            patcher.replace(stage, "process", process_then_sample)
        elif stage.name == "workers":
            def process_then_sample(ctx, process=process):
                process(ctx)
                recorder.peak("mq.pull_peak_depth", len(service.pull))
            patcher.replace(stage, "process", process_then_sample)
        else:
            patcher.replace(stage, "process", process)

    patcher.wrap(recorder, nic, "receive", "dpdk.nic.receive")
    patcher.wrap(recorder, nic, "_extract_tuple", "dpdk.nic.extract_tuple")
    patcher.wrap(recorder, nic, "rx_burst", "dpdk.rx_burst")
    patcher.wrap(recorder, nic.hasher, "hash_tuple", "dpdk.rss.hash")
    anomaly_observer = stack.anomaly.observe_packet
    for worker in pipeline.workers:
        patcher.wrap(recorder, worker.parser, "parse", "net.parse")
        patcher.wrap(recorder, worker.tracker, "process", "core.tracker")
        patcher.wrap(recorder, worker.tracker, "sink", "mq.send")
        observers = list(worker.observers)
        patcher.replace(worker, "observers", [
            recorder.wrap(
                "anomaly.observe_packet"
                if observer == anomaly_observer else "worker.observer",
                observer,
            )
            for observer in observers
        ])

    encode = recorder.wrap("mq.encode", service_module.encode_latency_record)

    def encode_counted(record):
        data = encode(record)
        recorder.counts["mq.bytes"] += len(data)
        return data

    patcher.replace(service_module, "encode_latency_record", encode_counted)
    patcher.replace(
        stages_module,
        "decode_enriched",
        recorder.wrap("frontend.decode", stages_module.decode_enriched),
    )
    _wrap_analytics(recorder, patcher, service)
    patcher.wrap(recorder, stack.wal, "append_lines", "durability.wal_append")
    patcher.wrap(recorder, stack.checkpointer, "checkpoint", "durability.checkpoint")
    if stack.overload is not None:
        patcher.wrap(recorder, stack.overload, "update", "overload.update")
    return patcher


def instrument_shard_parent(recorder: SpanRecorder, runtime, service) -> Patcher:
    """Wrap the parent-side layers of a started sharded runtime.

    Called after the fork, so the worker child runs unwrapped.
    """
    patcher = Patcher()
    patcher.wrap(recorder, runtime.hasher, "hash_tuple", "dpdk.rss.hash")
    patcher.replace(
        NicPort,
        "_extract_tuple",
        staticmethod(
            recorder.wrap("dpdk.nic.extract_tuple", NicPort._extract_tuple)
        ),
    )
    _wrap_analytics(recorder, patcher, service)
    return patcher
