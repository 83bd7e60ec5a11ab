"""Span-based stage tracing over the virtual clock.

A :class:`Span` brackets one unit of stage work — a worker poll, a
flow-table sweep, an analytics enrich — and records its start/end on
the pipeline's :class:`~repro.dpdk.clock.VirtualClock`. Because the
virtual clock only advances when replayed packets carry it forward,
span timings are fully deterministic: the same trace replayed twice
produces byte-identical spans, which is what lets tests assert exact
stage latencies instead of eyeballing wall-clock noise.

Completed root spans land in a bounded ring buffer (most recent
first out of :meth:`Tracer.recent`), so a long run keeps only the
tail — the "flight recorder" shape operators actually use. When a
:class:`~repro.obs.registry.MetricsRegistry` is attached, every span
additionally feeds a ``ruru_stage_duration_ns`` histogram labelled by
stage, tying the trace view and the metric view together.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.registry import DEFAULT_DURATION_BUCKETS_NS, MetricsRegistry

__all__ = ["Span", "Tracer"]


class Span:
    """One timed stage; usable as a context manager via the tracer.

    Attribute and child storage is lazy (``None`` until first use):
    spans are created on the packet path, so the common leaf span must
    not pay for two empty container allocations.
    """

    __slots__ = ("name", "_attrs", "start_ns", "end_ns", "_children", "_tracer")

    def __init__(self, name: str, start_ns: int, attrs: Optional[dict], tracer: "Tracer"):
        self.name = name
        self._attrs = attrs
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self._children: Optional[List["Span"]] = None
        self._tracer = tracer

    @property
    def attrs(self) -> Dict[str, object]:
        """Span attributes (empty dict when none were set)."""
        return self._attrs if self._attrs is not None else {}

    @property
    def children(self) -> List["Span"]:
        """Child spans, in start order."""
        return self._children if self._children is not None else []

    @property
    def duration_ns(self) -> int:
        """Span length on the virtual clock (0 until finished)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def finish(self) -> "Span":
        """Close the span at the tracer's current clock reading."""
        self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self)

    def walk(self):
        """Yield this span and all descendants, depth-first."""
        yield self
        for child in self._children or ():
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, start={self.start_ns}, "
            f"duration_ns={self.duration_ns}, children={len(self._children or ())})"
        )


class Tracer:
    """Builds nested spans against a clock; keeps recent root traces.

    Args:
        clock: anything with a ``now_ns`` attribute (normally the
            pipeline's :class:`~repro.dpdk.clock.VirtualClock`).
        max_traces: ring-buffer capacity for completed root spans.
        registry: when given, span durations also feed the
            ``ruru_stage_duration_ns`` histogram, labelled by stage.
        detail_sample: per-packet span sampling — instrumented loops
            (the NIC's per-frame ``nic.decode`` spans) emit detailed
            child spans on every Nth burst only, keeping hot-path
            overhead inside the ~5% budget. 1 traces every burst in
            detail, 0 disables per-packet spans entirely. Sampling is by
            deterministic burst count, so traces stay reproducible.
    """

    def __init__(
        self,
        clock=None,
        max_traces: int = 256,
        registry: Optional[MetricsRegistry] = None,
        detail_sample: int = 32,
    ):
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        if detail_sample < 0:
            raise ValueError("detail_sample cannot be negative")
        self.clock = clock
        self.detail_sample = detail_sample
        self._ring: Deque[Span] = deque(maxlen=max_traces)
        self._stack: List[Span] = []
        self.spans_started = 0
        self.spans_dropped = 0
        self._duration_family = None
        self._duration_children: dict = {}
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Start mirroring span durations into *registry*."""
        self._duration_family = registry.histogram(
            "ruru_stage_duration_ns",
            help="Stage span durations on the virtual clock.",
            labels=("stage",),
            buckets=DEFAULT_DURATION_BUCKETS_NS,
        )
        self._duration_children.clear()
        # Ring-buffer eviction is sampling loss: spans that fell out
        # of the flight recorder before anyone read them. Publishing
        # the count makes that loss visible instead of silent.
        started = registry.counter(
            "ruru_trace_spans_started_total",
            help="Spans opened by the tracer.",
        )
        dropped = registry.counter(
            "ruru_trace_spans_dropped_total",
            help="Root spans evicted from the trace ring before read-out.",
        )

        def collect() -> None:
            started.value = self.spans_started
            dropped.value = self.spans_dropped

        registry.register_collector(collect)

    def bind_clock(self, clock) -> None:
        """Adopt *clock* as the time source (pipeline construction)."""
        self.clock = clock

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span; nests under the currently open span, if any."""
        clock = self.clock
        if clock is None:
            raise RuntimeError("tracer has no clock bound")
        span = Span(name, clock.now_ns, attrs or None, self)
        stack = self._stack
        if stack:
            parent = stack[-1]
            if parent._children is None:
                parent._children = [span]
            else:
                parent._children.append(span)
        stack.append(span)
        self.spans_started += 1
        return span

    def _finish(self, span: Span) -> None:
        if span.end_ns is not None:
            return
        end_ns = self.clock.now_ns
        span.end_ns = end_ns
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            # Unwind to this span: abandoned children close with it.
            while stack:
                top = stack.pop()
                if top is span:
                    break
                top.end_ns = end_ns
        if not stack:
            ring = self._ring
            if len(ring) == ring.maxlen:
                self.spans_dropped += 1
            ring.append(span)
        if self._duration_family is not None:
            child = self._duration_children.get(span.name)
            if child is None:
                child = self._duration_family.labels(span.name)
                self._duration_children[span.name] = child
            child.observe(end_ns - span.start_ns)

    # -- read-out -----------------------------------------------------------

    def recent(self, limit: Optional[int] = None) -> List[Span]:
        """Completed root spans, most recent last."""
        traces = list(self._ring)
        if limit is not None:
            traces = traces[-limit:]
        return traces

    def stage_names(self) -> List[str]:
        """Distinct stage names seen across retained traces, sorted."""
        names = set()
        for root in self._ring:
            for span in root.walk():
                names.add(span.name)
        return sorted(names)

    def clear(self) -> None:
        """Drop retained traces (open spans are unaffected)."""
        self._ring.clear()
