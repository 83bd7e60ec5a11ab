"""End-to-end telemetry: the wired pipeline reports through one registry."""

from repro.analytics.service import AnalyticsService
from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.geo.builder import GeoDbBuilder
from repro.mq.socket import Context
from repro.obs import Telemetry
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.query import Query

NS_PER_S = 1_000_000_000


def run_instrumented(packets, export_interval_ns=NS_PER_S):
    telemetry = Telemetry()
    tsdb = TimeSeriesDatabase()
    telemetry.export_to(tsdb, interval_ns=export_interval_ns)
    pipeline = RuruPipeline(
        config=PipelineConfig(num_queues=4), telemetry=telemetry
    )
    stats = pipeline.run_packets(packets)
    telemetry.flush(pipeline.clock.now_ns)
    return telemetry, pipeline, stats, tsdb


class TestRegistryIsSourceOfTruth:
    def test_counters_match_pipeline_stats(self, small_workload):
        _, packets = small_workload
        telemetry, pipeline, stats, _ = run_instrumented(packets)
        snapshot = telemetry.registry.snapshot()

        def value(name):
            return snapshot[name]["samples"][0]["value"]

        assert value("ruru_packets_offered_total") == stats.packets_offered
        assert value("ruru_packets_queued_total") == stats.packets_queued
        assert value("ruru_nic_drops_total") == stats.nic_drops
        assert value("ruru_measurements_total") == stats.measurements
        assert value("ruru_nic_rx_packets_total") == pipeline.nic.stats.ipackets

    def test_tracker_events_cover_every_stats_field(self, small_workload):
        _, packets = small_workload
        telemetry, pipeline, stats, _ = run_instrumented(packets)
        family = telemetry.registry.family("ruru_tracker_events_total")
        telemetry.registry.collect()
        by_event = {
            labels[0]: child.value for labels, child in family.samples()
        }
        for field_name in stats.tracker.__dataclass_fields__:
            assert by_event[field_name] == getattr(stats.tracker, field_name)

    def test_per_queue_worker_counters(self, small_workload):
        _, packets = small_workload
        telemetry, pipeline, stats, _ = run_instrumented(packets)
        telemetry.registry.collect()
        family = telemetry.registry.family("ruru_worker_packets_processed_total")
        total = sum(child.value for _, child in family.samples())
        assert total == stats.packets_processed == stats.packets_queued

    def test_exposition_has_at_least_fifteen_series(self, small_workload):
        _, packets = small_workload
        telemetry, _, _, _ = run_instrumented(packets)
        text = telemetry.registry.exposition()
        sample_lines = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(sample_lines) >= 15
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(type_lines) >= 15


class TestDeterministicTraces:
    def test_same_workload_same_spans(self, small_workload):
        _, packets = small_workload

        def trace_shape(telemetry):
            return [
                (span.name, span.start_ns, span.end_ns)
                for root in telemetry.tracer.recent()
                for span in root.walk()
            ]

        first, _, _, _ = run_instrumented(packets)
        second, _, _, _ = run_instrumented(packets)
        shape = trace_shape(first)
        assert shape == trace_shape(second)
        assert shape  # traces were actually recorded

    def test_expected_stages_traced(self, small_workload):
        _, packets = small_workload
        telemetry, _, _, _ = run_instrumented(packets)
        stages = set(telemetry.tracer.stage_names())
        assert {
            "nic.receive",
            "pipeline.drain",
            "nic.decode",
            "worker.poll",
            "flow_table.sweep",
        } <= stages


class TestSelfMonitoringExport:
    def test_snapshots_written_on_interval(self, small_workload):
        # The 5 s workload at a 1 s interval gives multiple snapshots.
        _, packets = small_workload
        telemetry, _, _, tsdb = run_instrumented(packets)
        assert telemetry.exporter.exports >= 3
        result = tsdb.query(Query("ruru_packets_offered_total", "value", "last"))
        assert result.scalar() > 0

    def test_interval_configurable(self, small_workload):
        _, packets = small_workload
        coarse, _, _, _ = run_instrumented(
            packets, export_interval_ns=100 * NS_PER_S
        )
        fine, _, _, _ = run_instrumented(packets, export_interval_ns=NS_PER_S)
        assert coarse.exporter.exports < fine.exporter.exports


class TestAnalyticsTelemetry:
    def test_full_deployment_shares_one_registry(self, small_workload):
        generator, packets = small_workload
        context = Context()
        geo, asn = GeoDbBuilder(plan=generator.plan).build()
        # A deep ring so early mq.publish roots survive the analytics
        # spans emitted later by service.finish().
        telemetry = Telemetry(max_traces=1 << 16)
        service = AnalyticsService(context, geo, asn, telemetry=telemetry)
        telemetry.export_to(service.tsdb)
        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=4),
            sink=service.make_sink(),
            telemetry=telemetry,
        )
        # Use the fixture's materialized list: calling packets() again
        # would grow the session-scoped generator's spec history.
        stats = pipeline.run_packets(packets)
        service.finish()
        telemetry.flush(pipeline.clock.now_ns)

        snapshot = telemetry.registry.snapshot()

        def value(name):
            return snapshot[name]["samples"][0]["value"]

        assert value("ruru_mq_push_sent_total") == stats.measurements
        assert value("ruru_analytics_records_in_total") == stats.measurements
        assert value("ruru_analytics_enriched_total") == service.enriched_count
        assert value("ruru_tsdb_points") == service.tsdb.total_points()
        stages = set(telemetry.tracer.stage_names())
        assert {"mq.publish", "analytics.enrich", "analytics.write"} <= stages
