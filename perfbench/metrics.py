"""The metric catalogue: names, units, direction, bounds, and for each
per-layer metric the end-to-end metric and workload it should move.

``BENCHMARK.json`` carries the names, units, directions and bounds
(its schema admits no other keys); ``MOVES`` is the rest, and a test
keeps the two in step.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)

#: Stages of the durable stack graph, in topology order.
STAGES = (
    "overload", "nic", "workers", "mq", "analytics", "anomaly", "topk",
    "frontend", "telemetry", "tsdb", "checkpoint",
)

#: Parts of ``stage.workers`` self time (see ``tracing.WORKER_PARTS``).
WORKER_SPLIT = ("parse", "rss", "ring", "tracker", "anomaly", "mq", "unattributed")

_FAST = ("pkts_per_s, cpu_us_per_pkt", "tap-steady")
_RECORD = ("records_per_s, record_latency_ms.*", "tap-mice")
_WRITE = ("batch_ms.p95, pkts_per_s, peak_rss_mb", "syn-flood")
_SHARD = ("pkts_per_s, cpu_us_per_pkt", "tap-sharded")
_FAILED = ("frames_failed_share, records_failed_share", "all")

#: per-layer metric -> (end-to-end metrics it should move, workload).
MOVES: Dict[str, tuple] = {}
for _stage in STAGES:
    MOVES[f"stage.{_stage}.ns_per_frame"] = ("pkts_per_s, batch_ms.*", "all")
    MOVES[f"stage.{_stage}.wall_share"] = ("pkts_per_s, batch_ms.*", "all")
for _part in WORKER_SPLIT:
    MOVES[f"stage.workers.{_part}_share"] = _FAST
MOVES.update({
    "dpdk.nic.receive_ns": _FAST,
    "dpdk.rss.hash_ns": _FAST,
    "net.parse_ns": _FAST,
    "net.parses_per_frame": _FAST,
    "core.tracker_ns": _FAST,
    "core.stray_ack_share": _FAST,
    "anomaly.observe_packet_ns": _FAST,
    "mq.encode_ns": _FAST,
    "analytics.enrich_ns": _RECORD,
    "analytics.process_ns": _RECORD,
    "analytics.geo_miss_share": _RECORD,
    "tsdb.write_ns": _RECORD,
    "tsdb.points_per_record": _RECORD,
    "frontend.decode_ns": _RECORD,
    "mq.bytes_per_record": _RECORD,
    "mq.pull_peak_depth": _RECORD,
    "durability.checkpoint_ms": _WRITE,
    "durability.checkpoint_bytes": _WRITE,
    "durability.wal_append_ns": _WRITE,
    "core.flow_table.peak_entries": _WRITE,
    "overload.update_ns": _WRITE,
    "shard.offer_ms": _SHARD,
    "shard.parent_cpu_us_per_frame": _SHARD,
    "shard.child_cpu_us_per_frame": _SHARD,
    "shard.parent_idle_share": _SHARD,
    "dpdk.ring.peak_depth": _FAILED,
    "mq.hwm_drops": _FAILED,
    "overload.transitions": _FAILED,
    "frames_failed_share": _FAILED,
    "records_failed_share": _FAILED,
    "core.rtt_error_us.p99": ("correctness (RTTs match ground truth)", "all"),
    "trace.pkts_per_s": ("pkts_per_s (traced run)", "all"),
    "trace.overhead_share": ("none: cost of the traced run's spans", "all"),
})


def load_benchmark(path: str = BENCHMARK_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def units(section: str, path: str = BENCHMARK_PATH) -> Dict[str, str]:
    """``name -> unit`` for the ``end_to_end`` or ``per_layer`` list."""
    return {entry["name"]: entry["unit"] for entry in load_benchmark(path)[section]}


def names(section: str, path: str = BENCHMARK_PATH) -> List[str]:
    return [entry["name"] for entry in load_benchmark(path)[section]]
