"""The degradation ladder: dwell-timed transitions and admission."""

import pytest

from repro.net.packet import build_tcp_packet
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN
from repro.overload import (
    HANDSHAKE,
    OTHER,
    PAYLOAD,
    OverloadController,
    WatermarkBand,
)
from repro.overload.controller import (
    LEVEL_FULL,
    LEVEL_HANDSHAKE_ONLY,
    LEVEL_HEADERS_ONLY,
    LEVEL_SAMPLED,
    NS_PER_MS,
)

SYN = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_SYN).data
ACK = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_ACK).data
DATA = build_tcp_packet(
    1, 2, 3, 4, TCP_FLAG_PSH | TCP_FLAG_ACK, payload=b"x" * 400
).data
ARP = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28


def controlled(pressure, **kwargs):
    """A controller with one synthetic probe driven by a dict."""
    controller = OverloadController(
        band=WatermarkBand(low=0.5, high=0.85),
        up_dwell_ns=50 * NS_PER_MS,
        down_dwell_ns=250 * NS_PER_MS,
        **kwargs,
    )
    controller.watch_stage(
        "synthetic", [lambda: (pressure["peak"], 100)]
    )
    return controller


class TestLadderTransitions:
    def test_first_step_up_is_immediate(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        assert controller.update(0) == LEVEL_SAMPLED
        assert len(controller.transitions) == 1
        assert controller.transitions[0].direction == "step-up"

    def test_up_steps_respect_dwell(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        controller.update(0)
        # Within the up dwell: held at sampled despite pressure.
        assert controller.update(49 * NS_PER_MS) == LEVEL_SAMPLED
        assert controller.update(50 * NS_PER_MS) == LEVEL_HANDSHAKE_ONLY
        assert controller.update(100 * NS_PER_MS) == LEVEL_HEADERS_ONLY
        # Top rung: no further stepping.
        assert controller.update(999 * NS_PER_MS) == LEVEL_HEADERS_ONLY
        assert controller.level_max == LEVEL_HEADERS_ONLY

    def test_down_needs_continuous_calm_dwell(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        for at_ms in (0, 50, 100):
            controller.update(at_ms * NS_PER_MS)
        assert controller.level == LEVEL_HEADERS_ONLY
        pressure["peak"] = 10  # below low: calm begins
        assert controller.update(200 * NS_PER_MS) == LEVEL_HEADERS_ONLY
        assert controller.update(449 * NS_PER_MS) == LEVEL_HEADERS_ONLY
        assert controller.update(450 * NS_PER_MS) == LEVEL_HANDSHAKE_ONLY
        # Each further rung needs its own full calm dwell.
        assert controller.update(451 * NS_PER_MS) == LEVEL_HANDSHAKE_ONLY
        assert controller.update(700 * NS_PER_MS) == LEVEL_SAMPLED
        assert controller.update(950 * NS_PER_MS) == LEVEL_FULL
        assert controller.level_max == LEVEL_HEADERS_ONLY

    def test_in_band_reading_holds_level_and_calm_clock(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        controller.update(0)
        pressure["peak"] = 10
        controller.update(100 * NS_PER_MS)  # calm clock starts
        pressure["peak"] = 70  # inside the band: resets the calm clock
        controller.update(200 * NS_PER_MS)
        pressure["peak"] = 10
        controller.update(250 * NS_PER_MS)  # calm restarts here
        # The dwell counts from the restart, not the first calm read.
        assert controller.update(499 * NS_PER_MS) == LEVEL_SAMPLED
        assert controller.update(501 * NS_PER_MS) == LEVEL_FULL

    def test_pressure_resets_calm_clock(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        controller.update(0)
        pressure["peak"] = 10
        controller.update(100 * NS_PER_MS)
        pressure["peak"] = 100
        controller.update(200 * NS_PER_MS)  # re-pressured (steps up too)
        pressure["peak"] = 10
        controller.update(300 * NS_PER_MS)
        assert controller.level == LEVEL_HANDSHAKE_ONLY
        assert controller.update(549 * NS_PER_MS) == LEVEL_HANDSHAKE_ONLY
        assert controller.update(551 * NS_PER_MS) == LEVEL_SAMPLED

    def test_no_sensors_means_no_movement(self):
        controller = OverloadController()
        assert controller.update(0) == LEVEL_FULL
        assert controller.transitions == []

    def test_transition_event_rendering(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        controller.update(123 * NS_PER_MS)
        text = str(controller.transitions[0])
        assert "step-up" in text and "full -> sampled" in text


class TestAdmission:
    def test_full_admits_everything(self):
        controller = OverloadController()
        for data in (SYN, ACK, DATA, ARP):
            admitted, _, out = controller.admit_frame(data)
            assert admitted and out == data
        assert controller.offered == {PAYLOAD: 1, OTHER: 1, HANDSHAKE: 2}
        assert controller.admitted == controller.offered
        assert controller.shed_total() == 0

    def test_sampled_admits_one_in_n_payload(self):
        controller = OverloadController(sampled_modulus=4)
        controller.level = LEVEL_SAMPLED
        admitted = [controller.admit_frame(DATA)[0] for _ in range(8)]
        assert admitted == [False, False, False, True] * 2
        assert controller.admitted[PAYLOAD] == 2
        assert controller.shed_total(klass=PAYLOAD, stage="nic") == 6
        # Handshake and other still flow at this rung.
        assert controller.admit_frame(SYN)[0]
        assert controller.admit_frame(ARP)[0]

    def test_handshake_only_sheds_payload_samples_other(self):
        controller = OverloadController(sampled_modulus=2)
        controller.level = LEVEL_HANDSHAKE_ONLY
        assert not controller.admit_frame(DATA)[0]
        assert controller.admit_frame(ACK)[0]
        assert [controller.admit_frame(ARP)[0] for _ in range(4)] == [
            False, True, False, True,
        ]

    def test_headers_only_truncates_handshakes(self):
        controller = OverloadController(snap_len=64)
        controller.level = LEVEL_HEADERS_ONLY
        # A small handshake frame passes through untouched...
        admitted, klass, out = controller.admit_frame(SYN)
        assert admitted and klass == HANDSHAKE and out == SYN
        assert controller.truncated == 0
        # ...an oversized one (fast-open SYN) is cut to snap_len.
        big_syn = build_tcp_packet(
            1, 2, 3, 4, TCP_FLAG_SYN, payload=b"x" * 200
        ).data
        admitted, klass, out = controller.admit_frame(big_syn)
        assert admitted and klass == HANDSHAKE
        assert len(out) == 64
        assert controller.truncated == 1
        assert not controller.admit_frame(DATA)[0]
        assert not controller.admit_frame(ARP)[0]

    def test_shed_ratio_excludes_mq_records(self):
        controller = OverloadController()
        controller.level = LEVEL_HANDSHAKE_ONLY
        for _ in range(4):
            controller.admit_frame(DATA)
        for _ in range(4):
            controller.admit_frame(ACK)
        controller.record_shed(HANDSHAKE, "mq")
        assert controller.shed_ratio(PAYLOAD) == 1.0
        assert controller.shed_ratio(HANDSHAKE) == 0.0
        assert controller.shed_total(klass=HANDSHAKE) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadController(up_dwell_ns=-1)
        with pytest.raises(ValueError):
            OverloadController(sampled_modulus=0)
        with pytest.raises(ValueError):
            OverloadController(snap_len=32)


class TestDurability:
    def test_state_round_trip(self):
        pressure = {"peak": 100}
        controller = controlled(pressure, sampled_modulus=4)
        controller.update(0)
        controller.update(60 * NS_PER_MS)
        for _ in range(5):
            controller.admit_frame(DATA)
        controller.admit_frame(SYN)
        controller.record_ring_displacement()
        controller.mq_offered = 17
        controller.record_shed(HANDSHAKE, "mq")

        state = controller.state_dict()
        import json

        restored = OverloadController(sampled_modulus=4)
        restored.load_state(json.loads(json.dumps(state)))

        assert restored.level == controller.level
        assert restored.level_max == controller.level_max
        assert restored.offered == controller.offered
        assert restored.admitted == controller.admitted
        assert restored.shed_counts() == controller.shed_counts()
        assert restored.ring_displacements == 1
        assert restored.mq_offered == 17
        assert len(restored.transitions) == len(controller.transitions)
        # The 1-in-N cursor resumes, keeping replays deterministic.
        assert restored._payload_seq == controller._payload_seq

    def test_restored_ladder_steps_down_after_fresh_calm_dwell(self):
        pressure = {"peak": 100}
        controller = controlled(pressure)
        controller.update(0)
        state = controller.state_dict()

        restored = OverloadController(
            band=WatermarkBand(low=0.5, high=0.85),
            up_dwell_ns=50 * NS_PER_MS,
            down_dwell_ns=250 * NS_PER_MS,
        )
        restored.load_state(state)
        restored.watch_stage("synthetic", [lambda: (0, 100)])
        from repro.overload.controller import LEVEL_SAMPLED as L1

        assert restored.level == L1
        assert restored.update(1000 * NS_PER_MS) == L1
        assert restored.update(1251 * NS_PER_MS) == LEVEL_FULL
