"""Mbuf pool tests."""

import pytest

from repro.dpdk.mbuf import Mbuf, MbufPool, MbufPoolExhausted
from repro.net.parser import ParseError


class TestMbufPool:
    def test_alloc_free_cycle(self):
        pool = MbufPool(size=4)
        mbuf = pool.alloc(b"frame", timestamp_ns=7, rss_hash=0xAB, queue_id=2)
        assert mbuf.data == b"frame"
        assert mbuf.timestamp_ns == 7
        assert mbuf.rss_hash == 0xAB
        assert mbuf.queue_id == 2
        assert pool.in_use == 1
        mbuf.free()
        assert pool.in_use == 0
        assert pool.available == 4

    def test_exhaustion_raises_and_counts(self):
        pool = MbufPool(size=2)
        pool.alloc(b"a")
        pool.alloc(b"b")
        with pytest.raises(MbufPoolExhausted):
            pool.alloc(b"c")
        assert pool.exhausted_count == 1

    def test_free_returns_capacity(self):
        pool = MbufPool(size=1)
        mbuf = pool.alloc(b"x")
        mbuf.free()
        assert pool.alloc(b"y").data == b"y"

    def test_double_free_rejected(self):
        pool = MbufPool(size=2)
        mbuf = pool.alloc(b"x")
        mbuf.free()
        with pytest.raises(ValueError):
            pool.free(mbuf)

    def test_foreign_mbuf_rejected(self):
        pool_a, pool_b = MbufPool(size=1), MbufPool(size=1)
        mbuf = pool_a.alloc(b"x")
        with pytest.raises(ValueError):
            pool_b.free(mbuf)

    def test_data_cleared_on_free(self):
        pool = MbufPool(size=1)
        mbuf = pool.alloc(b"secret")
        mbuf.free()
        assert mbuf.data == b""

    def test_counters(self):
        pool = MbufPool(size=8)
        buffers = [pool.alloc(b"p") for _ in range(5)]
        for buffer in buffers:
            buffer.free()
        assert pool.alloc_count == 5
        assert pool.free_count == 5

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MbufPool(size=0)

    def test_poolless_mbuf_free_is_noop(self):
        Mbuf(data=b"loose").free()

    def test_free_drops_the_carried_decode(self):
        pool = MbufPool(size=1)
        mbuf = pool.alloc(b"frame")
        mbuf.decoded = ParseError("not-ip")
        mbuf.free()
        assert mbuf.decoded is None

    def test_free_bulk_returns_a_burst(self):
        pool = MbufPool(size=4)
        burst = [pool.alloc(b"p") for _ in range(3)]
        burst[0].decoded = ParseError("not-tcp")
        pool.free_bulk(burst)
        assert pool.available == 4 and pool.free_count == 3
        assert all(m.data == b"" and m.decoded is None for m in burst)

    def test_free_bulk_rejects_foreign_and_overflow(self):
        pool_a, pool_b = MbufPool(size=2), MbufPool(size=2)
        with pytest.raises(ValueError):
            pool_b.free_bulk([pool_a.alloc(b"x")])
        with pytest.raises(ValueError):
            pool_a.free_bulk([pool_a.alloc(b"y")] * 3)

    def test_slots_keep_mbufs_dict_free(self):
        assert not hasattr(Mbuf(), "__dict__")
