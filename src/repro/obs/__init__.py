"""``repro.obs`` — the unified telemetry subsystem.

Three pieces, one handle:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms with labels; Prometheus text exposition and
  a JSON snapshot view. Existing hot-path counters stay plain ints and
  are bridged in by scrape-time collectors, so instrumentation cost on
  the packet path is effectively zero.
* :class:`~repro.obs.trace.Tracer` — nestable stage spans timed on the
  :class:`~repro.dpdk.clock.VirtualClock` (deterministic in tests),
  retained in a ring buffer and mirrored into a duration histogram.
* :class:`~repro.obs.exporter.TelemetryExporter` — periodic registry
  snapshots written into the in-repo TSDB as self-monitoring series.

:class:`Telemetry` bundles the three and is what the pipeline, the
analytics service and the CLI pass around: construct one, hand it to
:class:`~repro.core.pipeline.RuruPipeline`, and every stage's counters
and spans flow through it.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporter import DEFAULT_EXPORT_INTERVAL_NS, TelemetryExporter
from repro.obs.prof import DEFAULT_CALL_SAMPLE, StageProfile, StageProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "StageProfile",
    "StageProfiler",
    "Tracer",
    "Telemetry",
    "TelemetryExporter",
    "DEFAULT_CALL_SAMPLE",
    "DEFAULT_EXPORT_INTERVAL_NS",
]


class Telemetry:
    """Registry + tracer + (optional) exporter, shared across stages.

    Args:
        clock: time source for spans and export intervals; when None,
            the first pipeline this telemetry is attached to binds its
            own :class:`~repro.dpdk.clock.VirtualClock`.
        max_traces: tracer ring-buffer capacity.
        detail_sample: trace packet-level spans on every Nth NIC
            burst (1 = every burst, 0 = burst-level spans only). See
            :class:`~repro.obs.trace.Tracer`.
    """

    def __init__(self, clock=None, max_traces: int = 256, detail_sample: int = 32):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            clock=clock,
            max_traces=max_traces,
            registry=self.registry,
            detail_sample=detail_sample,
        )
        self.exporter: Optional[TelemetryExporter] = None
        self.profiler: Optional[StageProfiler] = None
        self.clock = clock

    def enable_profiler(
        self, sample_every: int = DEFAULT_CALL_SAMPLE
    ) -> StageProfiler:
        """Attach a stage profiler (idempotent); the stack builder
        binds it to the assembled stage graph and the registry."""
        if self.profiler is None:
            self.profiler = StageProfiler(sample_every=sample_every)
            self.profiler.bind_registry(self.registry)
        return self.profiler

    def bind_clock(self, clock) -> None:
        """Adopt *clock*; a no-op if one is already bound."""
        if self.clock is None:
            self.clock = clock
            self.tracer.bind_clock(clock)

    def export_to(
        self, tsdb, interval_ns: int = DEFAULT_EXPORT_INTERVAL_NS
    ) -> TelemetryExporter:
        """Attach a periodic self-monitoring exporter writing to *tsdb*."""
        self.exporter = TelemetryExporter(self.registry, tsdb, interval_ns=interval_ns)
        return self.exporter

    def tick(self, now_ns: int) -> int:
        """Drive the exporter, if any; returns points written."""
        if self.exporter is None:
            return 0
        return self.exporter.maybe_export(now_ns)

    def flush(self, now_ns: Optional[int] = None) -> int:
        """Force a final export (end of a run); returns points written."""
        if self.exporter is None:
            return 0
        if now_ns is None:
            now_ns = self.clock.now_ns if self.clock is not None else 0
        return self.exporter.export(now_ns)
