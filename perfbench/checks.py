"""Correctness checks: ledgers close, RTTs match truth, output unchanged.

Each check returns a list of failure strings; an empty list passes.
Any failure in any pass marks the whole run incorrect.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Largest |measured - truth| accepted for either RTT half. The
#: generator rounds each delay component to whole nanoseconds on its
#: own, so exact agreement is not expected; a microsecond is three
#: orders of magnitude below the smallest RTT in any workload.
RTT_TOLERANCE_NS = 1_000

#: The seed whose delivered-measurement digests are recorded.
DEFAULT_SEED = 17

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "digests.json")


def ledger(name: str, total: int, terms: Dict[str, int]) -> List[str]:
    """``total == sum(terms)``, or one failure naming the imbalance."""
    accounted = sum(terms.values())
    if total == accounted:
        return []
    detail = " + ".join(f"{key}={value}" for key, value in terms.items())
    return [
        f"{name} ledger open: {total} != {detail} "
        f"(balance {total - accounted})"
    ]


# -- ground truth ---------------------------------------------------------


class Truth:
    """Expected RTTs of every completing flow, keyed by ACK time.

    A delivered measurement carries no addresses, only its completing
    ACK's capture time. The synthesizer places a flow's SYN half an
    internal RTT after the flow starts, then the SYN-ACK one external
    RTT (plus server delay, plus an RTO if the SYN was lost) later and
    the ACK one internal RTT (plus client delay) after that, so the
    spec gives the ACK time up to the same nanosecond rounding.
    """

    def __init__(self, specs: Iterable):
        rows = []
        for spec in specs:
            if not spec.completes or spec.rst_after_synack:
                continue
            internal = spec.expected_internal_ns()
            external = spec.expected_external_ns()
            half = int(spec.internal_rtt_ms * 1_000_000) // 2
            rows.append((spec.start_ns + half + external + internal,
                         internal, external))
        rows.sort()
        self._acks = [row[0] for row in rows]
        self._rows = rows

    def error_ns(self, measurement) -> Optional[int]:
        """Worst-half |measured - truth| for the nearest completing
        flow, or None if no flow completes within the tolerance."""
        ack = measurement.timestamp_ns
        index = bisect.bisect_left(self._acks, ack - RTT_TOLERANCE_NS)
        best = None
        while index < len(self._rows) and self._acks[index] <= ack + RTT_TOLERANCE_NS:
            _, internal, external = self._rows[index]
            error = max(
                abs(measurement.internal_ns - internal),
                abs(measurement.external_ns - external),
            )
            if best is None or error < best:
                best = error
            index += 1
        return best


def rtt_check(
    measurements: Sequence, truth: Truth
) -> Tuple[List[str], List[int]]:
    """Every delivered RTT within ``RTT_TOLERANCE_NS`` of its truth.

    Returns the failures and the per-measurement errors (ns).
    """
    errors: List[int] = []
    unmatched = 0
    worst = 0
    for measurement in measurements:
        error = truth.error_ns(measurement)
        if error is None:
            unmatched += 1
            continue
        errors.append(error)
        worst = max(worst, error)
    failures = []
    if unmatched:
        failures.append(f"{unmatched} delivered RTTs match no generated flow")
    if worst > RTT_TOLERANCE_NS:
        failures.append(
            f"RTT error {worst} ns exceeds {RTT_TOLERANCE_NS} ns"
        )
    return failures, errors


# -- unchanged output -----------------------------------------------------


def digest(measurements: Iterable) -> str:
    """SHA-256 of the delivered-measurement multiset (order-free)."""
    rows = sorted(
        (
            m.timestamp_ns, m.internal_ns, m.external_ns,
            m.src_country, m.src_city, m.src_asn,
            m.dst_country, m.dst_city, m.dst_asn, m.degraded,
        )
        for m in measurements
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def recorded_digests() -> Dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest_check(
    workload: str, seed: int, observed: str, recorded: Dict[str, str]
) -> List[str]:
    """On the default seed the digest must equal the recorded one."""
    if seed != DEFAULT_SEED:
        return []
    expected = recorded.get(workload)
    if expected is None:
        return [f"no recorded digest for {workload}"]
    if observed != expected:
        return [
            f"{workload} seed {seed}: measurements changed "
            f"(digest {observed[:12]} != recorded {expected[:12]})"
        ]
    return []
