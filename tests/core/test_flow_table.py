"""Flow table tests: canonical keys, eviction, expiry, checkpoints."""

import dataclasses
import json

import pytest

from repro.core.flow_table import (
    FlowEntry,
    FlowState,
    HandshakeTable,
    canonical_flow_key,
)


def _entry(syn_ns=0, orig_ip=1, orig_port=10):
    return FlowEntry(
        state=FlowState.SYN_SEEN,
        orig_ip=orig_ip,
        orig_port=orig_port,
        resp_ip=2,
        resp_port=20,
        is_ipv6=False,
        syn_ns=syn_ns,
        syn_seq=100,
        rss_hash=0,
    )


class TestCanonicalKey:
    def test_direction_independent(self):
        forward = canonical_flow_key(1, 10, 2, 20)
        reverse = canonical_flow_key(2, 20, 1, 10)
        assert forward == reverse

    def test_port_breaks_tie_on_same_ip(self):
        a = canonical_flow_key(5, 1, 5, 9)
        b = canonical_flow_key(5, 9, 5, 1)
        assert a == b

    def test_family_distinguishes(self):
        assert canonical_flow_key(1, 2, 3, 4, False) != canonical_flow_key(
            1, 2, 3, 4, True
        )

    def test_distinct_flows_distinct_keys(self):
        assert canonical_flow_key(1, 10, 2, 20) != canonical_flow_key(1, 11, 2, 20)


class TestHandshakeTable:
    def test_insert_get_remove(self):
        table = HandshakeTable(max_entries=10)
        key = canonical_flow_key(1, 10, 2, 20)
        table.insert(key, _entry())
        assert key in table
        assert table.get(key) is not None
        assert table.remove(key, reason="completed") is not None
        assert table.completed == 1
        assert len(table) == 0

    def test_remove_reasons_counted(self):
        table = HandshakeTable(max_entries=10)
        for i, reason in enumerate(["completed", "aborted", "expired"]):
            key = canonical_flow_key(i, 1, 99, 2)
            table.insert(key, _entry())
            table.remove(key, reason=reason)
        assert (table.completed, table.aborted, table.expired) == (1, 1, 1)

    def test_remove_missing_returns_none(self):
        table = HandshakeTable(max_entries=4)
        assert table.remove(canonical_flow_key(1, 2, 3, 4)) is None

    def test_capacity_evicts_oldest(self):
        table = HandshakeTable(max_entries=2)
        k1, k2, k3 = (canonical_flow_key(i, 1, 99, 2) for i in range(3))
        table.insert(k1, _entry(syn_ns=1))
        table.insert(k2, _entry(syn_ns=2))
        evicted = table.insert(k3, _entry(syn_ns=3))
        assert evicted is not None and evicted.syn_ns == 1
        assert k1 not in table and k2 in table and k3 in table
        assert table.evicted == 1

    def test_reinsert_same_key_does_not_evict(self):
        table = HandshakeTable(max_entries=1)
        key = canonical_flow_key(1, 2, 3, 4)
        table.insert(key, _entry(syn_ns=1))
        assert table.insert(key, _entry(syn_ns=2)) is None
        assert table.get(key).syn_ns == 2

    def test_sweep_expired_removes_only_old(self):
        table = HandshakeTable(max_entries=10)
        old_key = canonical_flow_key(1, 1, 99, 2)
        new_key = canonical_flow_key(2, 1, 99, 2)
        table.insert(old_key, _entry(syn_ns=0))
        table.insert(new_key, _entry(syn_ns=9_000_000_000))
        removed = table.sweep_expired(now_ns=10_000_000_000, timeout_ns=5_000_000_000)
        assert removed == 1
        assert old_key not in table and new_key in table
        assert table.expired == 1

    def test_sweep_stops_at_first_young_entry(self):
        table = HandshakeTable(max_entries=10)
        # Insertion order: young first, then old — the scan must stop
        # at the young head even though an older entry sits behind it.
        young = canonical_flow_key(1, 1, 99, 2)
        old = canonical_flow_key(2, 1, 99, 2)
        table.insert(young, _entry(syn_ns=9_000_000_000))
        table.insert(old, _entry(syn_ns=0))
        removed = table.sweep_expired(now_ns=10_000_000_000, timeout_ns=5_000_000_000)
        assert removed == 0  # O(expired) sweep trades this corner for speed
        assert len(table) == 2

    def test_occupancy(self):
        table = HandshakeTable(max_entries=4)
        table.insert(canonical_flow_key(1, 2, 3, 4), _entry())
        assert table.occupancy == 0.25

    def test_entries_iteration_order(self):
        table = HandshakeTable(max_entries=10)
        keys = [canonical_flow_key(i, 1, 99, 2) for i in range(3)]
        for i, key in enumerate(keys):
            table.insert(key, _entry(syn_ns=i))
        assert [key for key, _ in table.entries()] == keys

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            HandshakeTable(max_entries=0)

    def test_entry_age(self):
        entry = _entry(syn_ns=100)
        assert entry.age_ns(250) == 150


class TestSynFloodPressure:
    """Eviction under a flood of never-completing SYNs.

    The attack model: an attacker sprays SYNs from distinct 4-tuples
    faster than handshakes complete. The table must cost bounded
    memory, keep exact counters, and leave legitimate in-flight
    handshakes retrievable and intact.
    """

    CAPACITY = 128

    def _flood(self, table, count, start=1000):
        for i in range(count):
            key = canonical_flow_key(start + i, 1, 99, 2)
            table.insert(key, _entry(syn_ns=i, orig_ip=start + i))

    def test_memory_bounded_at_capacity(self):
        table = HandshakeTable(max_entries=self.CAPACITY)
        self._flood(table, 10 * self.CAPACITY)
        assert len(table) == self.CAPACITY
        assert table.inserted == 10 * self.CAPACITY
        assert table.evicted == 9 * self.CAPACITY

    def test_count_conservation_under_flood(self):
        table = HandshakeTable(max_entries=self.CAPACITY)
        self._flood(table, 5 * self.CAPACITY)
        # Every insert is still in the table or counted out of it.
        accounted = (
            len(table) + table.evicted + table.completed
            + table.expired + table.aborted
        )
        assert accounted == table.inserted

    def test_survivors_are_newest_and_intact(self):
        table = HandshakeTable(max_entries=self.CAPACITY)
        self._flood(table, 3 * self.CAPACITY)
        entries = list(table.entries())
        # Drop-oldest leaves exactly the newest CAPACITY flood entries,
        # in insertion order, with their fields unclobbered.
        expected_first = 1000 + 2 * self.CAPACITY
        assert [e.orig_ip for _, e in entries] == list(
            range(expected_first, expected_first + self.CAPACITY)
        )
        for key, entry in entries:
            assert table.get(key) is entry
            assert entry.state is FlowState.SYN_SEEN

    def test_inflight_handshake_completes_mid_flood(self):
        table = HandshakeTable(max_entries=self.CAPACITY)
        good_key = canonical_flow_key(7, 7, 8, 8)
        good = _entry(syn_ns=50, orig_ip=7, orig_port=7)
        table.insert(good_key, good)
        # SYN-ACK arrives, then the flood fills the rest of the table
        # (but never exceeds capacity while the good flow is resident).
        good.state = FlowState.SYNACK_SEEN
        good.synack_ns = 60
        self._flood(table, self.CAPACITY - 1)
        survivor = table.get(good_key)
        assert survivor is good
        assert survivor.state is FlowState.SYNACK_SEEN
        assert survivor.synack_ns == 60
        completed = table.remove(good_key, reason="completed")
        assert completed is good
        assert table.completed == 1

    def test_flood_entries_expire_on_sweep(self):
        table = HandshakeTable(max_entries=self.CAPACITY)
        self._flood(table, self.CAPACITY)
        removed = table.sweep_expired(
            now_ns=10_000_000_000, timeout_ns=1_000_000_000
        )
        assert removed == self.CAPACITY
        assert len(table) == 0
        assert table.expired == self.CAPACITY

    def test_reinsert_after_eviction_is_clean(self):
        table = HandshakeTable(max_entries=2)
        first = canonical_flow_key(1, 1, 99, 2)
        table.insert(first, _entry(orig_ip=1))
        self._flood(table, 2)  # evicts `first`
        assert first not in table
        table.insert(first, _entry(orig_ip=1, syn_ns=777))
        assert table.get(first).syn_ns == 777


class TestCheckpointRows:
    @staticmethod
    def _table():
        table = HandshakeTable(max_entries=8, queue_id=3)
        table.insert(canonical_flow_key(1, 10, 2, 20), _entry(syn_ns=5))
        answered = FlowEntry(
            state=FlowState.SYNACK_SEEN, orig_ip=(1 << 127) + 9, orig_port=443,
            resp_ip=7, resp_port=8080, is_ipv6=True, syn_ns=11, syn_seq=(1 << 32) - 1,
            rss_hash=0xDEADBEEF, synack_ns=19, synack_seq=42, syn_retransmits=2,
            synack_retransmits=1,
        )
        table.insert(canonical_flow_key(7, 8080, (1 << 127) + 9, 443, True), answered)
        table.remove(canonical_flow_key(1, 10, 2, 20), reason="aborted")
        table.insert(canonical_flow_key(3, 30, 4, 40), _entry(syn_ns=6, orig_ip=3, orig_port=30))
        return table

    def test_rows_serialize_exactly_as_asdict_rows(self):
        table = self._table()
        reference = [
            {
                "key": list(key),
                "state": entry.state.value,
                **{k: v for k, v in dataclasses.asdict(entry).items() if k != "state"},
            }
            for key, entry in table.entries()
        ]
        rows = table.state_dict()["entries"]
        assert json.dumps(rows) == json.dumps(reference)

    def test_load_state_round_trip(self):
        table = self._table()
        state = json.loads(json.dumps(table.state_dict()))
        restored = HandshakeTable()
        restored.load_state(state)
        assert list(restored.entries()) == list(table.entries())
        assert restored.state_dict() == table.state_dict()
