"""The four workloads and their seeded inputs.

Every workload is a traffic mix from the repository's own generator,
materialised before any clock starts. The program only ever sees the
frames; the flow specs (ground truth) stay with the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.traffic.endpoints import EndpointPopulation
from repro.traffic.generator import GeneratorConfig, TrafficGenerator
from repro.traffic.scenarios import SynFloodInjector

NS_PER_S = 1_000_000_000

#: Frames handed to ``RuruStack.process_batch`` (or ``offer``) per call.
FEED_BATCH = 256

#: RSS receive queues of the in-process stack.
QUEUES = 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the runtime that consumes it.

    ``duration_s`` is virtual (capture) time; the benchmark replays the
    whole capture once per pass, as fast as the stack accepts it.
    """

    duration_s: float
    flows_per_s: float
    max_data_exchanges: int = 3
    overload: bool = False
    sharded: bool = False
    flood_rate_per_s: float = 0.0
    flood_start_s: float = 0.0
    flood_duration_s: float = 0.0


WORKLOADS = {
    # The paper's deployment mix: most frames are stray ACKs of
    # established flows, so per-frame fast-path cost dominates.
    "tap-steady": Workload(duration_s=30.0, flows_per_s=200.0),
    # Flows without data exchanges: a record per ~6 frames, so per-record cost
    # (analytics, TSDB, frontend) dominates and a fast path for stray
    # ACKs has little to skip.
    "tap-mice": Workload(duration_s=15.0, flows_per_s=600.0, max_data_exchanges=0),
    # Half-open entries inserted and never probed: the flow table and
    # therefore every checkpoint grow, with overload control on as in
    # ``ruru live --overload``.
    "syn-flood": Workload(
        duration_s=20.0,
        flows_per_s=100.0,
        overload=True,
        flood_rate_per_s=1000.0,
        flood_start_s=5.0,
        flood_duration_s=12.0,
    ),
    # tap-steady's frames through the forked shard runtime (parent plus
    # one worker child): the only workload that crosses repro.shard.
    "tap-sharded": Workload(duration_s=30.0, flows_per_s=200.0, sharded=True),
}


@dataclass
class Inputs:
    """Materialised frames plus the generator that holds the truth."""

    frames: List
    generator: TrafficGenerator

    @property
    def specs(self):
        return self.generator.specs


def generate(workload: Workload, seed: int) -> Inputs:
    """The workload's frames for *seed* (same seed, same frames)."""
    injectors = []
    if workload.flood_rate_per_s:
        injectors.append(
            SynFloodInjector(
                flood_start_ns=int(workload.flood_start_s * NS_PER_S),
                flood_duration_ns=int(workload.flood_duration_s * NS_PER_S),
                rate_per_s=workload.flood_rate_per_s,
            )
        )
    config = GeneratorConfig(
        duration_ns=int(workload.duration_s * NS_PER_S),
        mean_flows_per_s=workload.flows_per_s,
        seed=seed,
        tap_city="Auckland",
        max_data_exchanges=workload.max_data_exchanges,
    )
    generator = TrafficGenerator(
        config=config,
        population=EndpointPopulation(),
        injectors=injectors,
        keep_specs=True,
    )
    return Inputs(frames=generator.packet_list(), generator=generator)


def batches(frames: List) -> List[List]:
    """The closed-loop feed: consecutive slices of ``FEED_BATCH``."""
    return [
        frames[start:start + FEED_BATCH]
        for start in range(0, len(frames), FEED_BATCH)
    ]
