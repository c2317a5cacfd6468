"""Store buffer, DRAM channel, interconnect fabric, and local store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramConfig, InterconnectConfig
from repro.interconnect.fabric import ClusterBus, Crossbar
from repro.mem.dram import DramChannel
from repro.mem.local_store import LocalStore, LocalStoreError
from repro.mem.store_buffer import StoreBuffer
from repro.units import ns_to_fs


class TestStoreBuffer:
    def test_no_stall_while_space(self):
        buf = StoreBuffer(2)
        assert buf.push(0, 1000) == 0
        assert buf.push(0, 2000) == 0
        assert buf.outstanding(0) == 2

    def test_full_buffer_stalls_until_oldest_retires(self):
        buf = StoreBuffer(1)
        buf.push(0, 1000)
        stall = buf.push(10, 2000)
        assert stall == 990
        assert buf.full_stalls == 1

    def test_retired_entries_drain(self):
        buf = StoreBuffer(1)
        buf.push(0, 1000)
        assert buf.push(5000, 6000) == 0
        assert buf.outstanding(5000) == 1

    def test_drain_time(self):
        buf = StoreBuffer(4)
        buf.push(0, 800)
        buf.push(0, 1200)
        assert buf.drain_time(0) == 1200
        assert buf.drain_time(2000) == 2000

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            StoreBuffer(0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=100))
    def test_occupancy_never_exceeds_capacity(self, entries, latencies):
        buf = StoreBuffer(entries)
        now = 0
        for latency in latencies:
            now += 10
            stall = buf.push(now, now + latency)
            now += stall
            assert buf.outstanding(now) <= entries


class TestDramChannel:
    def test_read_latency_and_occupancy(self):
        ch = DramChannel(DramConfig(bandwidth_gbps=6.4, latency_ns=70))
        done = ch.access(0, 32)
        # 32 B at 6.4 GB/s = 5 ns occupancy, + 70 ns access latency.
        assert done == ns_to_fs(75)
        assert ch.read_bytes == 32
        assert ch.read_accesses == 1

    def test_reads_and_writes_share_the_channel(self):
        ch = DramChannel(DramConfig(bandwidth_gbps=6.4, latency_ns=70))
        ch.access(0, 64, write=True)  # occupies [0, 10 ns)
        done = ch.access(0, 32)       # queues behind the write
        assert done == ns_to_fs(10 + 5 + 70)
        assert ch.total_bytes == 96
        assert ch.total_accesses == 2

    def test_streaming_reads_are_latency_pipelined(self):
        """Total time for n granules ~ latency + n * transfer (Section 2.3)."""
        ch = DramChannel(DramConfig(bandwidth_gbps=6.4, latency_ns=70))
        last = 0
        n = 100
        for _ in range(n):
            last = ch.access(0, 32)
        assert last == ns_to_fs(n * 5 + 70)

    def test_utilization(self):
        ch = DramChannel(DramConfig(bandwidth_gbps=6.4, latency_ns=70))
        ch.access(0, 64)
        assert ch.utilization(ns_to_fs(20)) == pytest.approx(0.5)


class TestFabric:
    def test_bus_directions_are_independent(self):
        bus = ClusterBus(0, InterconnectConfig())
        req_done = bus.req.serve(0, bus.req.service_fs(0))
        resp_done = bus.resp.serve(0, bus.resp.service_fs(32))
        # Neither queued behind the other.
        assert req_done == ns_to_fs(1.25 + 2.5)
        assert resp_done == ns_to_fs(1.25 + 2.5)

    def test_transfer_width_quantized(self):
        bus = ClusterBus(0, InterconnectConfig())
        done = bus.req.serve(0, bus.req.service_fs(64))   # 2 cycles at 32 B/cycle
        assert done == ns_to_fs(2 * 1.25 + 2.5)

    def test_minimum_one_cycle(self):
        bus = ClusterBus(0, InterconnectConfig())
        done = bus.req.serve(0, bus.req.service_fs(1))
        assert done == ns_to_fs(1.25 + 2.5)

    def test_bytes_accounting(self):
        bus = ClusterBus(0, InterconnectConfig())
        # Callers count the bytes they carry; the bus sums both directions.
        bus.req.bytes_moved += 32
        bus.resp.bytes_moved += 48
        assert bus.bytes_moved == 80

    def test_crossbar_ports_per_cluster(self):
        xbar = Crossbar(4, InterconnectConfig())
        assert len(xbar.up) == 4
        assert len(xbar.down) == 4
        xbar.up[1].bytes_moved += 32
        assert xbar.bytes_moved == 32

    def test_crossbar_requires_clusters(self):
        with pytest.raises(ValueError):
            Crossbar(0, InterconnectConfig())


class TestLocalStore:
    def test_alloc_and_bounds(self):
        ls = LocalStore(1024)
        a = ls.alloc(256, "a")
        b = ls.alloc(256, "b")
        assert a == 0 and b == 256
        assert ls.allocated_bytes == 512
        assert ls.free_bytes == 512
        ls.check_range(a, 256)

    def test_overflow_rejected(self):
        ls = LocalStore(1024)
        ls.alloc(1000, "big")
        with pytest.raises(LocalStoreError):
            ls.alloc(100, "too-much")

    def test_out_of_range_access_rejected(self):
        ls = LocalStore(1024)
        with pytest.raises(LocalStoreError):
            ls.check_range(1000, 100)
        with pytest.raises(LocalStoreError):
            ls.check_range(-4, 8)

    def test_reset_releases(self):
        ls = LocalStore(1024)
        ls.alloc(1024, "all")
        ls.reset()
        assert ls.alloc(512, "again") == 0

    def test_access_counters(self):
        ls = LocalStore(1024)
        ls.record_read(128, 32)
        ls.record_write(64, 16)
        assert (ls.reads, ls.read_accesses) == (128, 32)
        assert (ls.writes, ls.write_accesses) == (64, 16)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            LocalStore(0)
        with pytest.raises(LocalStoreError):
            LocalStore(64).alloc(0, "zero")
