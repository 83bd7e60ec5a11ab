"""One benchmark run: set up, measure passes for the time budget,
check every pass, and reduce to the metrics named in BENCHMARK.json.

An untraced run reports the end-to-end metrics, every timing scaled
to the nominal host speed by the reference slices run beside it (see
``perfbench.reference``). A traced run first makes one untraced pass
(the overhead baseline), then traced passes, and reports the
per-layer metrics, their times scaled by the traced passes' median
slowdown.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from perfbench import checks, metrics
from perfbench.runners import PassResult, ShardRunner, StackRunner
from perfbench.stats import median, tail_percentile
from perfbench.tracing import SpanRecorder
from perfbench.workloads import WORKLOADS, generate

#: Stack builds timed per run; set-up is the median of these plus the
#: build that precedes every pass.
SETUP_BUILDS = 5

#: Reference slices run on each side of a timed build.
SETUP_SLICES = 4

#: Spans a traced run holds before it stops starting passes (~48 MB).
SPAN_BUDGET = 2_000_000


@contextmanager
def _own_heap_frozen():
    """Keep the benchmark's own heap (frames, ground truth, earlier
    results) out of the collector, so garbage collection during a build
    or a pass traverses the system's objects only."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _timed_build(runner, setup: List[Tuple[float, float]]):
    """Build once; appends (seconds, slowdown of the slices around it)."""
    reference = runner.reference
    mark = reference.mark()
    for _ in range(SETUP_SLICES):
        reference.slice()
    started = time.perf_counter()
    system = runner.build()
    seconds = time.perf_counter() - started
    for _ in range(SETUP_SLICES):
        reference.slice()
    setup.append((seconds, reference.slowdown(mark)))
    return system


def _setup_samples(runner, builds: int) -> List[Tuple[float, float]]:
    samples: List[Tuple[float, float]] = []
    for _ in range(builds):
        with _own_heap_frozen():
            runner.discard(_timed_build(runner, samples))
    return samples


def _one_pass(runner, setup: List[float], truth, recorder=None) -> PassResult:
    """Build (timed as set-up), run one pass, tear down, check it."""
    with _own_heap_frozen():
        system = _timed_build(runner, setup)
        try:
            result = runner.run_pass(system, recorder=recorder)
        finally:
            runner.discard(system)
    rtt_failures, result.rtt_errors = checks.rtt_check(result.measurements, truth)
    result.failures.extend(rtt_failures)
    result.digest = checks.digest(result.measurements)
    result.measurements = []
    return result


def _passes(runner, setup, truth, seconds, recorder=None) -> List[PassResult]:
    """Whole passes until *seconds* have gone by (at least one), or, in
    a traced run, until the spans held in memory reach ``SPAN_BUDGET``."""
    results: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    while not results or (
        time.perf_counter() < deadline
        and (recorder is None or len(recorder) < SPAN_BUDGET)
    ):
        results.append(_one_pass(runner, setup, truth, recorder))
    return results


def _check(name: str, seed: int, passes: List[PassResult], recorded) -> List[str]:
    """Every failure over every pass, plus the cross-pass checks."""
    failures = [failure for result in passes for failure in result.failures]
    digests = sorted({result.digest for result in passes})
    if len(digests) != 1:
        failures.append(
            f"passes over the same frames delivered {len(digests)} different multisets"
        )
    for observed in digests:
        failures.extend(checks.digest_check(name, seed, observed, recorded))
    return failures


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(
    passes: List[PassResult], setup: List[Tuple[float, float]], notes: List[str],
) -> Dict[str, float]:
    """End-to-end metrics at nominal host speed: a batch's duration and
    its records' latencies are divided by the batch's slowdown, and a
    pass's rates multiplied by the pass's."""
    latencies = [
        ns / 1e6 / slow for r in passes
        for ns, slow in zip(r.latency_ns, r.latency_slowdown)
    ]
    batch_ms = [
        ns / 1e6 / slow for r in passes
        for ns, slow in zip(r.batch_ns, r.batch_slowdown)
    ]
    raw_pps = [r.frames / (r.wall_ns / 1e9) for r in passes]
    values = {
        "pkts_per_s": median([
            pps * r.slowdown for pps, r in zip(raw_pps, passes)
        ]),
        "records_per_s": median([
            r.timed_records / (r.wall_ns / 1e9) * r.slowdown for r in passes
        ]),
        "cpu_us_per_pkt": median([
            r.cpu_s * 1e6 / r.frames / r.slowdown for r in passes
        ]),
        "setup_s": median([seconds / slowdown for seconds, slowdown in setup]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    slowdowns = [r.slowdown for r in passes]
    notes.append(
        f"host: reference slice {median(slowdowns):.3f}x nominal "
        f"(passes {min(slowdowns):.3f}-{max(slowdowns):.3f}); unscaled "
        f"{median(raw_pps):.0f} frames/s, set-up "
        f"{median([seconds for seconds, _ in setup]):.4f} s"
    )
    for metric, samples, wanted in (
        ("record_latency_ms.p50", latencies, 0.50),
        ("record_latency_ms.p95", latencies, 0.95),
        ("batch_ms.p50", batch_ms, 0.50),
        ("batch_ms.p95", batch_ms, 0.95),
    ):
        value, used, count = tail_percentile(samples, wanted)
        values[metric] = value
        notes.append(f"{metric}: p{used * 100:.2f} of {count} samples")
    return values


def _per_layer(
    passes: List[PassResult], baseline: PassResult, recorder: SpanRecorder,
    errors: List[int], fed: int, notes: List[str],
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes; *fed* is the capture's
    frame count (the failure shares cover warm-up frames too). Times
    and rates are at nominal host speed, like the end-to-end metrics."""
    totals, split = recorder.totals()
    host = median([r.slowdown for r in passes])
    frames = sum(r.frames for r in passes)
    count = {key: sum(r.counters.get(key, 0) for r in passes) for key in (
        "tracker.packets", "tracker.stray_ack", "enrich.enriched",
        "enrich.geo_misses", "mq.hwm_drops", "checkpoint.count",
        "checkpoint.bytes", "overload.transitions",
    )}

    def mean_ns(name: str) -> float:
        entry = totals.get(name)
        return entry.mean_ns() / host if entry else 0.0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    values: Dict[str, float] = {}
    stage_ns = {
        stage: totals[f"stage.{stage}"].inclusive_ns
        for stage in metrics.STAGES if f"stage.{stage}" in totals
    }
    all_stages = sum(stage_ns.values())
    for stage in metrics.STAGES:
        values[f"stage.{stage}.ns_per_frame"] = ratio(stage_ns.get(stage, 0), frames) / host
        values[f"stage.{stage}.wall_share"] = ratio(stage_ns.get(stage, 0), all_stages)
    # Shares of the workers stage's self time net of span bookkeeping,
    # so the parts sum to one.
    workers_ns = sum(split.values())
    for part in metrics.WORKER_SPLIT:
        values[f"stage.workers.{part}_share"] = ratio(split.get(part, 0), workers_ns)

    parses = sum(
        totals[name].count for name in ("dpdk.nic.extract_tuple", "net.parse")
        if name in totals
    )
    encodes = totals["mq.encode"].count if "mq.encode" in totals else 0
    records_emitted = sum(r.records_emitted for r in passes)
    wall_s = sum(r.wall_ns for r in passes) / 1e9
    cpu_self = sum(r.cpu_self_s for r in passes)
    cpu_children = sum(r.cpu_children_s for r in passes)
    sharded = "shard.offer" in totals
    traced_pps = median([r.frames / (r.wall_ns / 1e9) * r.slowdown for r in passes])
    baseline_pps = baseline.frames / (baseline.wall_ns / 1e9) * baseline.slowdown
    if errors:
        rtt_p99 = tail_percentile(errors, 0.99)[0] if len(errors) > 10 else max(errors)
    else:
        rtt_p99 = 0.0
    values.update({
        "dpdk.nic.receive_ns": mean_ns("dpdk.nic.receive"),
        "dpdk.rss.hash_ns": mean_ns("dpdk.rss.hash"),
        "net.parse_ns": mean_ns("net.parse"),
        "net.parses_per_frame": ratio(parses, frames),
        "core.tracker_ns": mean_ns("core.tracker"),
        "core.stray_ack_share": ratio(count["tracker.stray_ack"], count["tracker.packets"]),
        "anomaly.observe_packet_ns": mean_ns("anomaly.observe_packet"),
        "mq.encode_ns": mean_ns("mq.encode"),
        "analytics.enrich_ns": mean_ns("analytics.enrich"),
        "analytics.process_ns": mean_ns("analytics.process"),
        "analytics.geo_miss_share": ratio(count["enrich.geo_misses"], 2 * count["enrich.enriched"]),
        "tsdb.write_ns": mean_ns("tsdb.write"),
        "tsdb.points_per_record": ratio(
            recorder.counts["tsdb.points"],
            totals["analytics.process"].count if "analytics.process" in totals else 0,
        ),
        "frontend.decode_ns": mean_ns("frontend.decode"),
        "mq.bytes_per_record": ratio(recorder.counts["mq.bytes"], encodes),
        "mq.pull_peak_depth": recorder.peaks["mq.pull_peak_depth"],
        "durability.checkpoint_ms": mean_ns("durability.checkpoint") / 1e6,
        "durability.checkpoint_bytes": ratio(count["checkpoint.bytes"], count["checkpoint.count"]),
        "durability.wal_append_ns": mean_ns("durability.wal_append"),
        "core.flow_table.peak_entries": recorder.peaks["core.flow_table.peak_entries"],
        "overload.update_ns": mean_ns("overload.update"),
        "shard.offer_ms": mean_ns("shard.offer") / 1e6,
        "shard.parent_cpu_us_per_frame": (
            ratio(cpu_self * 1e6, frames) / host if sharded else 0.0
        ),
        "shard.child_cpu_us_per_frame": ratio(cpu_children * 1e6, frames) / host,
        "shard.parent_idle_share": max(0.0, 1.0 - ratio(cpu_self, wall_s)) if sharded else 0.0,
        "dpdk.ring.peak_depth": recorder.peaks["dpdk.ring.peak_depth"],
        "mq.hwm_drops": count["mq.hwm_drops"],
        "overload.transitions": count["overload.transitions"],
        "frames_failed_share": ratio(
            sum(r.frames_failed for r in passes), fed * len(passes)
        ),
        "records_failed_share": ratio(sum(r.records_failed for r in passes), records_emitted),
        "core.rtt_error_us.p99": rtt_p99 / 1e3,
        "trace.pkts_per_s": traced_pps,
        "trace.overhead_share": 1.0 - traced_pps / baseline_pps,
    })
    notes.append(
        f"tracing: {len(recorder.start)} spans, "
        f"{recorder.child_overhead_ns:.0f} ns bookkeeping per span taken "
        f"off its parent's self time; untraced pass "
        f"{baseline_pps:.0f} frames/s vs traced {traced_pps:.0f} frames/s "
        f"(at nominal speed; traced passes' reference slice {host:.3f}x nominal)"
    )
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """One run; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name]
    inputs = generate(workload, seed)
    truth = checks.Truth(inputs.specs)
    recorded = checks.recorded_digests()
    os.makedirs(out_dir, exist_ok=True)
    state_root = tempfile.mkdtemp(prefix=f"state-{os.getpid()}-", dir=out_dir)
    runner_type = ShardRunner if workload.sharded else StackRunner
    runner = runner_type(workload, inputs, seed, state_root)
    notes: List[str] = []
    try:
        setup = _setup_samples(runner, SETUP_BUILDS)
        if trace:
            baseline = _one_pass(runner, setup, truth)
            recorder = SpanRecorder()
            recorder.calibrate()
            remaining = max(0.0, seconds - baseline.wall_ns / 1e9)
            passes = _passes(runner, setup, truth, remaining, recorder)
            measured = [baseline] + passes
        else:
            passes = measured = _passes(runner, setup, truth, seconds)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)

    failures = _check(workload_name, seed, measured, recorded)
    errors = [error for result in measured for error in result.rtt_errors]
    if trace:
        values = _per_layer(
            passes, baseline, recorder, errors, len(inputs.frames), notes
        )
        units = metrics.units("per_layer")
        recorder.dump(os.path.join(out_dir, f"spans-{workload_name}.gz"))
    else:
        values = _end_to_end(passes, setup, notes)
        units = metrics.units("end_to_end")
    frames = len(inputs.frames) * len(measured)
    records = sum(r.records_emitted for r in measured)
    stray = sum(r.counters.get("tracker.stray_ack", 0) for r in measured)
    # Sharded trackers live in the child, out of the parent's sight.
    stray_note = "n/a" if workload.sharded else f"{stray / frames:.1%}"
    notes.insert(0, (
        f"{workload_name} seed {seed}: {len(measured)} passes of "
        f"{len(inputs.frames)} frames, {records // len(measured)} records "
        f"({records / frames:.1%} of frames), stray ACKs {stray_note}, "
        f"digest {measured[0].digest}"
    ))
    notes.extend(f"CHECK FAILED: {failure}" for failure in failures)
    return {
        "notes": notes,
        "result": {
            "correct": not failures,
            "attempted": frames + records,
            "failed": sum(r.frames_failed + r.records_failed for r in measured),
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        },
    }
