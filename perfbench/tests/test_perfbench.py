"""Tests of the benchmark itself: its metric catalogue, its percentile
rule, and that a changed output or an open ledger fails the run.

The runs here use two-second captures so each finishes in about a
second; the real workloads are only ever run through ``run.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, checks, metrics, reference, workloads
from perfbench.runners import PassResult
from perfbench.stats import MIN_BEYOND, median, tail_percentile
from perfbench.tracing import load_spans
from perfbench.workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "tap-steady": Workload(duration_s=2.0, flows_per_s=60.0),
    "syn-flood": Workload(
        duration_s=2.0, flows_per_s=60.0, overload=True,
        flood_rate_per_s=300.0, flood_start_s=0.5, flood_duration_s=1.0,
    ),
    "tap-sharded": Workload(duration_s=2.0, flows_per_s=60.0, sharded=True),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A runner for two-second captures of the named workloads."""
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "SETUP_BUILDS", 1)
    # Enough batches in a two-second capture for every percentile.
    monkeypatch.setattr(workloads, "FEED_BATCH", 16)

    def run(name, seed=checks.DEFAULT_SEED, trace=False, digests=None):
        if digests is not None:
            monkeypatch.setattr(checks, "recorded_digests", lambda: digests)
        return bench.run(name, seed, 0.0, trace, str(tmp_path))

    return run


def _digest_of(outcome) -> str:
    return re.search(r"digest ([0-9a-f]{64})", outcome["notes"][0]).group(1)


# -- BENCHMARK.json and the catalogue ---------------------------------------


def test_benchmark_json_has_exactly_the_contract_keys():
    spec = metrics.load_benchmark()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    bounds = {}
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        bounds[entry["name"]] = entry["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_every_per_layer_metric_names_what_it_should_move():
    assert metrics.names("per_layer") == list(metrics.MOVES)
    known = set(WORKLOADS) | {"all"}
    for name, (moves, workload) in metrics.MOVES.items():
        assert moves and workload in known, name


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_every_metric_with_its_unit(tiny, trace, section):
    outcome = tiny("tap-steady", trace=trace, digests={})
    reported = outcome["result"]["metrics"]
    assert list(reported) == metrics.names(section)
    units = metrics.units(section)
    for name, metric in reported.items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in reported.values())


def test_traced_run_splits_the_workers_stage_and_writes_its_spans(tiny, tmp_path):
    reported = tiny("tap-steady", trace=True, digests={})["result"]["metrics"]
    parts = sum(
        reported[f"stage.workers.{part}_share"]["value"]
        for part in metrics.WORKER_SPLIT
    )
    assert parts == pytest.approx(1.0, abs=0.05)
    assert reported["net.parses_per_frame"]["value"] == pytest.approx(2.0)
    assert reported["stage.workers.parse_share"]["value"] > 0
    spans = load_spans(str(tmp_path / "spans-tap-steady.gz"))
    assert "stage.workers" in spans["names"] and len(spans["start"]) > 1000
    for index in range(len(spans["start"])):
        parent = spans["parent"][index]
        assert spans["start"][index] <= spans["end"][index]
        if parent >= 0:
            assert parent < index
            assert spans["start"][parent] <= spans["start"][index]
            assert spans["end"][index] <= spans["end"][parent]


# -- the percentile rule ------------------------------------------------------


def test_percentile_is_exact_when_the_sample_supports_it():
    samples = list(range(2000))
    value, used, count = tail_percentile(samples, 0.99)
    assert (value, used, count) == (1979, 0.99, 2000)
    assert sum(1 for s in samples if s > value) >= MIN_BEYOND


def test_percentile_falls_back_to_ten_samples_beyond():
    samples = list(range(100))
    value, used, count = tail_percentile(samples, 0.99)
    assert value == 89 and used == pytest.approx(0.90)
    assert sum(1 for s in samples if s > value) == MIN_BEYOND


def test_percentile_refuses_a_sample_with_no_valid_rank():
    with pytest.raises(ValueError):
        tail_percentile(list(range(MIN_BEYOND)), 0.5)
    assert tail_percentile(list(range(11)), 0.5)[0] == 0


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# -- host-speed scaling -----------------------------------------------------------


def test_reference_capture_is_fixed_and_every_handshake_completes():
    capture = reference.frames()
    assert capture == reference.frames()
    assert len(capture) == 73_728
    records = reference.track(capture, {})
    assert len(records) == 8192 and len(set(records)) == 8192


def test_reference_slices_wrap_and_measure_their_own_time():
    ref = reference.Reference()
    mark = ref.mark()
    per_capture = len(ref.capture) // reference.SLICE_FRAMES
    for _ in range(per_capture + 1):
        ref.slice()
    assert ref.position == reference.SLICE_FRAMES
    assert ref.slices == per_capture + 1
    assert ref.slowdown(mark) == pytest.approx(
        ref.paused_ns / ref.slices / reference.NOMINAL_SLICE_NS
    )
    assert 0 < ref.cpu_since(mark)
    with pytest.raises(ValueError):
        ref.slowdown(ref.mark())


def test_a_batch_slowdown_is_the_mean_of_its_neighbours_slices():
    nominal = reference.NOMINAL_SLICE_NS
    slices = [nominal * factor for factor in (1, 2, 3, 4, 5, 6)]
    assert reference.local_slowdowns(slices, radius=1) == pytest.approx(
        [1.5, 2.0, 3.0, 4.0, 5.0, 5.5]
    )
    assert reference.local_slowdowns(slices) == pytest.approx(
        [2.0, 2.5, 3.0, 4.0, 4.5, 5.0]
    )


def _pass(slowdown: float) -> PassResult:
    return PassResult(
        frames=1000, timed_records=100, wall_ns=10**8, cpu_self_s=0.1,
        cpu_children_s=0.0, batch_ns=[10**6] * 20, latency_ns=[2 * 10**6] * 20,
        measurements=[], records_emitted=100, frames_failed=0,
        records_failed=0, failures=[], batch_slowdown=[slowdown] * 20,
        latency_slowdown=[slowdown] * 20, slowdown=slowdown,
    )


def test_end_to_end_metrics_are_scaled_to_nominal_host_speed():
    nominal = bench._end_to_end([_pass(1.0)], [(0.5, 1.0)], [])
    slow = bench._end_to_end([_pass(2.0)], [(0.5, 2.0)], [])
    assert nominal["pkts_per_s"] == pytest.approx(10_000)
    for name in ("pkts_per_s", "records_per_s"):
        assert slow[name] == pytest.approx(2 * nominal[name])
    for name in (
        "record_latency_ms.p50", "record_latency_ms.p95", "batch_ms.p50",
        "batch_ms.p95", "cpu_us_per_pkt", "setup_s",
    ):
        assert slow[name] == pytest.approx(nominal[name] / 2)


# -- correctness checks fail the run -------------------------------------------


def test_ledger_reports_an_imbalance():
    assert checks.ledger("frames", 10, {"processed": 9, "dropped": 1}) == []
    failure = checks.ledger("frames", 10, {"processed": 9, "dropped": 0})
    assert failure and "balance 1" in failure[0]


def test_recorded_digest_passes_and_a_corrupted_one_fails(tiny):
    first = tiny("tap-steady", digests={})
    assert not first["result"]["correct"]  # nothing recorded yet
    digest = _digest_of(first)
    good = tiny("tap-steady", digests={"tap-steady": digest})
    assert good["result"]["correct"], good["notes"]
    corrupted = "0" + digest[1:] if digest[0] != "0" else "1" + digest[1:]
    bad = tiny("tap-steady", digests={"tap-steady": corrupted})
    assert not bad["result"]["correct"]
    assert any("measurements changed" in note for note in bad["notes"])


def test_digest_is_only_checked_on_the_default_seed(tiny):
    outcome = tiny("tap-steady", seed=checks.DEFAULT_SEED + 1, digests={})
    assert outcome["result"]["correct"], outcome["notes"]


def test_a_silently_lost_record_opens_the_ledger(tiny, monkeypatch):
    from repro.mq.socket import SubSocket

    recv_all = SubSocket.recv_all

    def lose_first(self, max_messages=None):
        messages = recv_all(self, max_messages)
        return messages[1:]

    monkeypatch.setattr(SubSocket, "recv_all", lose_first)
    outcome = tiny("tap-steady", seed=checks.DEFAULT_SEED + 1, digests={})
    assert not outcome["result"]["correct"]
    assert any("records ledger open" in note for note in outcome["notes"])
    assert outcome["result"]["failed"] > 0


def test_rtt_outside_tolerance_fails():
    class Spec:
        start_ns, internal_rtt_ms = 0, 2.0
        completes, rst_after_synack = True, False

        def expected_internal_ns(self):
            return 2_000_000

        def expected_external_ns(self):
            return 5_000_000

    class Measured:
        timestamp_ns = 1_000_000 + 5_000_000 + 2_000_000
        internal_ns = 2_000_000
        external_ns = 5_000_000

    truth = checks.Truth([Spec()])
    assert checks.rtt_check([Measured()], truth) == ([], [0])
    Measured.external_ns += checks.RTT_TOLERANCE_NS + 1
    failures, _ = checks.rtt_check([Measured()], truth)
    assert failures


def test_sharded_run_delivers_the_in_process_multiset(tiny):
    in_process = _digest_of(tiny("tap-steady", digests={}))
    sharded = tiny("tap-sharded", digests={"tap-sharded": in_process})
    assert sharded["result"]["correct"], sharded["notes"]


def test_syn_flood_run_closes_its_ledgers(tiny):
    outcome = tiny("syn-flood", seed=checks.DEFAULT_SEED + 1, digests={})
    assert outcome["result"]["correct"], outcome["notes"]
    assert outcome["result"]["failed"] == 0


# -- the command ----------------------------------------------------------------


def test_command_fails_without_the_repository_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tap-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(
        line.startswith("{") for line in done.stdout.splitlines()
    )


def test_recorded_digests_cover_every_workload():
    recorded = checks.recorded_digests()
    assert set(recorded) == set(WORKLOADS)
    # Sharding changes placement, not measurements.
    assert recorded["tap-sharded"] == recorded["tap-steady"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", value) for value in recorded.values())
    json.dumps(recorded)
