"""The degradation-ladder controller.

One controller instance closes the loop for a whole stack: stage
sensors (NIC rings, MQ pull queue, frontend fan-out) feed a single
pressure signal, and the controller walks a four-rung ladder::

    full  ->  sampled  ->  handshake-only  ->  headers-only
     L0        L1             L2                 L3

- **full** — admit everything.
- **sampled** — admit 1-in-N payload segments (deterministic per-class
  round-robin, not random, so runs replay exactly); everything else
  admitted.
- **handshake-only** — shed all payload; non-TCP "other" frames are
  sampled 1-in-N so protocol mix stays observable.
- **headers-only** — shed payload and other; admitted handshake frames
  are truncated to ``snap_len`` bytes (well above the deepest header
  stack we parse) to shrink every downstream copy.

Transitions obey dwell times on the *virtual* clock: a step up requires
``up_dwell_ns`` since the previous transition (pressure is urgent, so
the first step is immediate), a step down requires the pressure signal
to sit below the low watermark continuously for ``down_dwell_ns``.
Every transition is recorded as a timestamped event.

The controller is also the system-wide shed ledger: per-class offered /
admitted counts at NIC admission, per-(class, stage) shed counters, and
the MQ gate's offered count all live here so one ``state_dict`` makes
the whole overload episode checkpoint- and WAL-recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.overload.classify import CLASSES, HANDSHAKE, OTHER, PAYLOAD, classify_frame
from repro.overload.watermark import OccupancyRead, PressureSensor, WatermarkBand

NS_PER_MS = 1_000_000

LEVEL_FULL = 0
LEVEL_SAMPLED = 1
LEVEL_HANDSHAKE_ONLY = 2
LEVEL_HEADERS_ONLY = 3

LEVEL_NAMES = ("full", "sampled", "handshake-only", "headers-only")


@dataclass(frozen=True)
class OverloadTransition:
    """One timestamped ladder step."""

    at_ns: int
    from_level: int
    to_level: int
    pressure: float

    @property
    def direction(self) -> str:
        return "step-up" if self.to_level > self.from_level else "step-down"

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_ns": self.at_ns,
            "from_level": self.from_level,
            "to_level": self.to_level,
            "pressure": self.pressure,
        }

    def __str__(self) -> str:
        return (
            f"[{self.at_ns / 1e9:9.3f}s] overload {self.direction}: "
            f"{LEVEL_NAMES[self.from_level]} -> {LEVEL_NAMES[self.to_level]} "
            f"(pressure {self.pressure:.2f})"
        )


class OverloadController:
    """Watermark-driven admission controller over the stage graph."""

    def __init__(
        self,
        band: Optional[WatermarkBand] = None,
        up_dwell_ns: int = 50 * NS_PER_MS,
        down_dwell_ns: int = 250 * NS_PER_MS,
        sampled_modulus: int = 8,
        snap_len: int = 256,
    ):
        if up_dwell_ns < 0 or down_dwell_ns < 0:
            raise ValueError("dwell times cannot be negative")
        if sampled_modulus < 1:
            raise ValueError("sampled_modulus must be >= 1")
        if snap_len < 64:
            raise ValueError("snap_len must be >= 64 to keep headers parseable")
        self.band = band or WatermarkBand()
        self.up_dwell_ns = up_dwell_ns
        self.down_dwell_ns = down_dwell_ns
        self.sampled_modulus = sampled_modulus
        self.snap_len = snap_len

        self.sensors: List[PressureSensor] = []
        self.level = LEVEL_FULL
        self.level_max = LEVEL_FULL
        self.last_pressure = 0.0
        self.transitions: List[OverloadTransition] = []
        self._last_transition_ns: Optional[int] = None
        self._calm_since_ns: Optional[int] = None

        # Admission accounting (frames, at the NIC).
        self.offered: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.admitted: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.truncated = 0
        self.ring_displacements = 0
        # Shed accounting, attributed per (class, stage).
        self._shed: Dict[Tuple[str, str], int] = {}
        # Record accounting (the MQ gate reports here).
        self.mq_offered = 0
        # Deterministic 1-in-N admission cursors.
        self._payload_seq = 0
        self._other_seq = 0

    # -- sensing -----------------------------------------------------------

    def watch_stage(self, stage: str, reads: Sequence[OccupancyRead]) -> None:
        """Register occupancy probes for one stage of the graph."""
        self.sensors.append(PressureSensor(stage, reads, self.band))

    def pressure_by_stage(self) -> Dict[str, float]:
        """Last-sampled peak-occupancy fraction per watched stage."""
        out: Dict[str, float] = {}
        for sensor in self.sensors:
            out[sensor.stage] = max(out.get(sensor.stage, 0.0), sensor.last_fraction)
        return out

    def update(self, now_ns: int) -> int:
        """One control-loop tick on the virtual clock; returns the level."""
        if not self.sensors:
            return self.level
        pressured = False
        pressure = 0.0
        for sensor in self.sensors:
            if sensor.update():
                pressured = True
            pressure = max(pressure, sensor.last_fraction)
        self.last_pressure = pressure

        if pressured:
            self._calm_since_ns = None
            if self.level < LEVEL_HEADERS_ONLY and self._dwelled(now_ns):
                self._step(now_ns, self.level + 1, pressure)
            return self.level

        # Stepping down needs *all* stages below the low watermark —
        # readings inside the band hold the current level.
        calm = all(s.last_fraction <= self.band.low for s in self.sensors)
        if not calm:
            self._calm_since_ns = None
            return self.level
        if self.level > LEVEL_FULL:
            if self._calm_since_ns is None:
                self._calm_since_ns = now_ns
            elif now_ns - self._calm_since_ns >= self.down_dwell_ns:
                self._step(now_ns, self.level - 1, pressure)
                # Each further rung needs its own full calm dwell.
                self._calm_since_ns = now_ns
        return self.level

    def _dwelled(self, now_ns: int) -> bool:
        if self._last_transition_ns is None:
            return True
        return now_ns - self._last_transition_ns >= self.up_dwell_ns

    def _step(self, now_ns: int, to_level: int, pressure: float) -> None:
        self.transitions.append(
            OverloadTransition(
                at_ns=now_ns,
                from_level=self.level,
                to_level=to_level,
                pressure=pressure,
            )
        )
        self.level = to_level
        self.level_max = max(self.level_max, to_level)
        self._last_transition_ns = now_ns

    # -- admission ---------------------------------------------------------

    def admit_frame(self, data: bytes) -> Tuple[bool, str, bytes]:
        """Admission decision for one frame: (admitted, class, data).

        Every frame is classified (even at level ``full``) so the
        per-class offered counts are honest denominators. The returned
        data may be truncated at the headers-only level.
        """
        klass = classify_frame(data)
        self.offered[klass] += 1
        level = self.level

        if klass == HANDSHAKE or level == LEVEL_FULL:
            self.admitted[klass] += 1
            if (
                level == LEVEL_HEADERS_ONLY
                and klass == HANDSHAKE
                and len(data) > self.snap_len
            ):
                self.truncated += 1
                return True, klass, data[: self.snap_len]
            return True, klass, data

        if klass == PAYLOAD:
            if level == LEVEL_SAMPLED:
                self._payload_seq += 1
                if self._payload_seq % self.sampled_modulus == 0:
                    self.admitted[klass] += 1
                    return True, klass, data
        else:  # OTHER
            if level == LEVEL_SAMPLED:
                self.admitted[klass] += 1
                return True, klass, data
            if level == LEVEL_HANDSHAKE_ONLY:
                self._other_seq += 1
                if self._other_seq % self.sampled_modulus == 0:
                    self.admitted[klass] += 1
                    return True, klass, data

        self.record_shed(klass, "nic")
        return False, klass, data

    def is_displaceable(self, mbuf) -> bool:
        """Ring-displacement victim test: newest payload frame goes first."""
        return classify_frame(mbuf.data) == PAYLOAD

    def should_displace(self, klass: Optional[str]) -> bool:
        """Only handshake frames may evict a queued payload frame."""
        return klass == HANDSHAKE

    def record_ring_displacement(self) -> None:
        """A queued payload frame was evicted for a handshake frame.

        The victim had already been admitted (it counts as queued at
        the pipeline level), so it is shed at the *ring* stage; the
        separate displacement counter lets conservation checks split
        evictions from incoming-frame ring drops.
        """
        self.ring_displacements += 1
        self.record_shed(PAYLOAD, "ring")

    def record_ring_drop(self, klass: Optional[str]) -> None:
        """An admitted frame found its ring full and nothing to evict."""
        self.record_shed(klass if klass is not None else OTHER, "ring")

    # -- shed ledger -------------------------------------------------------

    def record_shed(self, klass: str, stage: str) -> None:
        key = (klass, stage)
        self._shed[key] = self._shed.get(key, 0) + 1

    def shed_counts(self) -> Dict[Tuple[str, str], int]:
        return dict(self._shed)

    def shed_total(self, klass: Optional[str] = None, stage: Optional[str] = None) -> int:
        total = 0
        for (k, s), count in self._shed.items():
            if klass is not None and k != klass:
                continue
            if stage is not None and s != stage:
                continue
            total += count
        return total

    def shed_ratio(self, klass: str) -> float:
        """Fraction of this class's offered frames shed anywhere."""
        offered = self.offered.get(klass, 0)
        if offered == 0:
            return 0.0
        # MQ-stage sheds are records, not frames; exclude them from
        # the frame-level ratio.
        frame_shed = sum(
            count for (k, s), count in self._shed.items() if k == klass and s != "mq"
        )
        return frame_shed / offered

    # -- durability --------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "level_max": self.level_max,
            "last_transition_ns": self._last_transition_ns,
            "calm_since_ns": self._calm_since_ns,
            "offered": dict(self.offered),
            "admitted": dict(self.admitted),
            "truncated": self.truncated,
            "ring_displacements": self.ring_displacements,
            "shed": [[k, s, count] for (k, s), count in sorted(self._shed.items())],
            "mq_offered": self.mq_offered,
            "payload_seq": self._payload_seq,
            "other_seq": self._other_seq,
            "transitions": [t.as_dict() for t in self.transitions],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore an overload episode mid-flight.

        Sensor hysteresis state is deliberately not persisted: queues
        are empty after recovery, so sensors re-arm from calm while the
        *level* (and every counter) resumes where the crash left it —
        the ladder steps back down only after a genuine calm dwell.
        """
        self.level = state["level"]
        self.level_max = state["level_max"]
        self._last_transition_ns = state["last_transition_ns"]
        self._calm_since_ns = state["calm_since_ns"]
        self.offered = {klass: 0 for klass in CLASSES}
        self.offered.update(state["offered"])
        self.admitted = {klass: 0 for klass in CLASSES}
        self.admitted.update(state["admitted"])
        self.truncated = state["truncated"]
        self.ring_displacements = state.get("ring_displacements", 0)
        self._shed = {(k, s): count for k, s, count in state["shed"]}
        self.mq_offered = state["mq_offered"]
        self._payload_seq = state["payload_seq"]
        self._other_seq = state["other_seq"]
        self.transitions = [
            OverloadTransition(
                at_ns=t["at_ns"],
                from_level=t["from_level"],
                to_level=t["to_level"],
                pressure=t["pressure"],
            )
            for t in state["transitions"]
        ]

    def summary(self) -> Dict[str, object]:
        """Flat snapshot for reports and scenario metrics."""
        return {
            "level": self.level,
            "level_name": LEVEL_NAMES[self.level],
            "level_max": self.level_max,
            "transitions": len(self.transitions),
            "offered": dict(self.offered),
            "admitted": dict(self.admitted),
            "truncated": self.truncated,
            "ring_displacements": self.ring_displacements,
            "shed": {f"{k}/{s}": count for (k, s), count in sorted(self._shed.items())},
            "mq_offered": self.mq_offered,
        }


__all__ = [
    "LEVEL_FULL",
    "LEVEL_SAMPLED",
    "LEVEL_HANDSHAKE_ONLY",
    "LEVEL_HEADERS_ONLY",
    "LEVEL_NAMES",
    "OverloadTransition",
    "OverloadController",
    "HANDSHAKE",
    "PAYLOAD",
    "OTHER",
]
