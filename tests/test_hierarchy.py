"""Memory hierarchy walks: miss paths, refills, PFS, write-backs, drain."""

import pytest

from repro.analysis.monitors import MonitorSet
from repro.config import CacheConfig, MachineConfig, WritePolicy
from repro.mem.coherence import MesiState
from repro.mem.hierarchy import CacheCoherentHierarchy, StreamingHierarchy, Uncore
from repro.units import ns_to_fs


def hierarchy(cores=4, l1_capacity=None, **cfg_kwargs):
    cfg = MachineConfig(num_cores=cores, **cfg_kwargs)
    l1 = None
    if l1_capacity is not None:
        l1 = CacheConfig(capacity_bytes=l1_capacity, associativity=2)
    return CacheCoherentHierarchy(cfg, l1_config=l1)


class TestLoadPath:
    def test_cold_miss_latency_includes_dram(self):
        h = hierarchy()
        t0 = ns_to_fs(100)
        done = h.load_line(0, 100, t0)
        # bus + xbar + L2 + 70 ns DRAM + return path: between 80 and 110 ns.
        assert ns_to_fs(80) < done - t0 < ns_to_fs(110)

    def test_l2_hit_much_faster_than_dram(self):
        h = hierarchy()
        t0 = ns_to_fs(100)
        done = h.load_line(0, 100, t0)
        h.l1s[0].invalidate(100)            # force an L1 miss, L2 hit
        done2 = h.load_line(0, 100, done)
        assert done2 - done < ns_to_fs(30)

    def test_l1_hit_costs_nothing_extra(self):
        h = hierarchy()
        done = h.load_line(0, 100, 0)
        assert h.load_line(0, 100, done) == done

    def test_miss_counters(self):
        h = hierarchy()
        h.load_line(0, 1, 0)
        h.load_line(0, 1, 10**9)
        h.load_line(0, 2, 2 * 10**9)
        assert h.load_ops == 3
        assert h.load_misses == 2


class TestStorePath:
    def test_store_miss_refills_line(self):
        """Write-allocate: a store miss reads the line first (Section 2.3)."""
        h = hierarchy()
        h.store_line(0, 100, 0)
        assert h.uncore.dram.read_bytes == 32

    def test_pfs_store_avoids_refill(self):
        h = hierarchy()
        h.store_line(0, 100, 0, no_allocate=True)
        assert h.uncore.dram.read_bytes == 0
        assert h.refills_avoided == 1
        assert h.l1s[0].lookup(100) is MesiState.MODIFIED

    def test_store_returns_stall_only_when_buffer_full(self):
        h = hierarchy()
        stalls = [h.store_line(0, line, 0) for line in range(20)]
        assert stalls[0] == 0
        assert any(s > 0 for s in stalls)    # 8-entry buffer eventually fills

    def test_no_write_allocate_policy(self):
        cfg = MachineConfig(num_cores=1)
        l1 = CacheConfig(capacity_bytes=1024, associativity=2,
                         write_policy=WritePolicy.NO_WRITE_ALLOCATE)
        h = CacheCoherentHierarchy(cfg, l1_config=l1)
        h.store_line(0, 100, 0)
        assert h.l1s[0].lookup(100) is None        # no allocation
        assert h.uncore.dram.read_bytes == 0       # no refill
        assert h.uncore.l2.lookup(100) is not None  # gathered write to L2


class TestWritebacks:
    def test_dirty_eviction_reaches_l2(self):
        h = hierarchy(l1_capacity=128)   # 4 lines, 2 sets
        num_sets = 2
        h.store_line(0, 0, 0)
        h.store_line(0, num_sets, 10**9)
        h.store_line(0, 2 * num_sets, 2 * 10**9)   # evicts dirty line 0
        assert h.l1_writebacks == 1
        assert h.uncore.l2.lookup(0) is MesiState.MODIFIED

    def test_clean_eviction_is_silent(self):
        h = hierarchy(l1_capacity=128)
        num_sets = 2
        for i in range(3):
            h.load_line(0, i * num_sets, i * 10**9)
        assert h.l1_writebacks == 0


class TestDrain:
    def test_drain_flushes_all_dirty_state(self):
        h = hierarchy()
        for line in range(16):
            h.store_line(0, line, 0)
        assert h.uncore.dram.write_bytes == 0
        h.drain(10**10)
        assert h.uncore.dram.write_bytes == 16 * 32

    def test_drain_is_idempotent(self):
        h = hierarchy()
        h.store_line(0, 5, 0)
        h.drain(10**10)
        written = h.uncore.dram.write_bytes
        h.drain(2 * 10**10)
        assert h.uncore.dram.write_bytes == written

    def test_drain_returns_settle_time(self):
        h = hierarchy()
        h.store_line(0, 5, 0)
        t = h.drain(10**10)
        assert t >= 10**10


class TestUncore:
    def test_l2_eviction_writes_back_dirty(self):
        cfg = MachineConfig(num_cores=1)
        unc = Uncore(cfg)
        n_lines = cfg.l2.num_lines
        unc.l2_write(0, 0)
        # Fill the L2 far enough to evict line 0's set.
        for i in range(1, cfg.l2.associativity + 1):
            unc.l2_write(i * cfg.l2.num_sets, i * 10**7)
        assert unc.l2_writebacks == 1
        assert unc.dram.write_bytes == 32
        assert n_lines > 0

    def test_l2_read_hit_does_not_touch_dram(self):
        h = hierarchy(cores=1)
        unc = h.uncore
        h.load_line(0, 3, 0)
        reads = unc.dram.read_bytes
        hits = unc.l2_read_hits
        h.invalidate_range(0, 3, 3, 10**9)      # clean: no write-back
        h.load_line(0, 3, 10**9)
        assert unc.l2_read_hits == hits + 1
        assert unc.dram.read_bytes == reads


class TestClusterTopology:
    def test_cluster_assignment(self):
        h = hierarchy(cores=8)
        assert h.cluster_of == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_remote_supply_slower_than_local(self):
        h = hierarchy(cores=8)
        t0 = 10**9
        h.store_line(0, 100, 0)                   # owner in cluster 0
        local = h.load_line(1, 100, t0) - t0      # same cluster
        h2 = hierarchy(cores=8)
        h2.store_line(0, 100, 0)
        remote = h2.load_line(4, 100, t0) - t0    # other cluster
        assert remote > local


class TestStreamingHierarchy:
    def test_has_local_stores_and_dma(self):
        cfg = MachineConfig(num_cores=4).with_model("str")
        h = StreamingHierarchy(cfg)
        assert len(h.local_stores) == 4
        assert len(h.dma_engines) == 4
        assert h.l1_config.capacity_bytes == cfg.stream_l1.capacity_bytes

    def test_prefetch_never_enabled_for_streaming(self):
        cfg = MachineConfig(num_cores=2).with_model("str").with_prefetch()
        h = StreamingHierarchy(cfg)
        assert all(p is None for p in h.prefetchers)


class TestPrefetchIntegration:
    def test_sequential_stream_gets_prefetched(self):
        h = hierarchy(cores=1).__class__(
            MachineConfig(num_cores=1).with_prefetch(depth=4)
        )
        now = 0
        for line in range(3):
            h.load_line(0, line, now)
            now += 10**9
        assert h.prefetches_issued > 0
        # Lines ahead of the stream are already resident.
        assert h.l1s[0].lookup(4) is not None

    def test_prefetched_line_waits_for_arrival(self):
        h = CacheCoherentHierarchy(
            MachineConfig(num_cores=1).with_prefetch(depth=4))
        h.load_line(0, 0, 0)
        h.load_line(0, 1, ns_to_fs(200))   # triggers prefetch of 2..5
        # Demand the prefetched line *immediately*: it is still in flight.
        done = h.load_line(0, 2, ns_to_fs(201))
        assert done > ns_to_fs(201)
        assert h.prefetch_late_fs > 0


class TestMshrLimit:
    def test_prefetch_issue_bounded_by_mshrs(self):
        """A tight MSHR budget throttles deep prefetching."""
        import dataclasses

        cfg = MachineConfig(num_cores=1).with_prefetch(depth=16)
        cfg = cfg.with_(core=dataclasses.replace(cfg.core, mshr_entries=3))
        h = CacheCoherentHierarchy(cfg)
        now = 0
        for line in range(4):
            h.load_line(0, line, now)
            now += 100_000   # far less than a fill latency
        assert h.prefetch_mshr_drops > 0
        # Never more than mshr_entries - 1 fills in flight.
        assert len([t for t in h._inflight[0] if t > now]) <= 2

    def test_ample_mshrs_never_drop(self):
        cfg = MachineConfig(num_cores=1).with_prefetch(depth=2)
        h = CacheCoherentHierarchy(cfg)
        now = 0
        for line in range(16):
            h.load_line(0, line, now)
            now += 10**9     # fills complete between accesses
        assert h.prefetch_mshr_drops == 0


class TestWaitAccounting:
    def test_contended_resource_records_wait(self):
        from repro.sim.resources import OccupancyResource

        r = OccupancyResource("r")
        r.serve(0, 100)
        r.serve(10, 10)
        assert r.wait_fs == 90

    def test_system_exposes_wait_stats(self):
        from repro import run_workload

        r = run_workload("fir", cores=16, clock_ghz=6.4, preset="tiny")
        assert "dram.wait_fs" in r.stats
        assert "bus.wait_fs" in r.stats
        assert r.stats["dram.wait_fs"] >= 0


class TestObserverRoundTrip:
    """Appending to and removing from ``observers`` round-trips the
    list."""

    def test_unregister_empties_observers(self):
        h = hierarchy()
        observer = lambda *args: None  # noqa: E731
        assert h.observers == []
        h.observers.append(observer)
        assert h.observers == [observer]
        h.observers.remove(observer)
        assert h.observers == []

    def test_unregister_is_idempotent(self):
        h = hierarchy()
        monitors = MonitorSet()
        monitors.attach(h.observers, lambda *args: None)
        monitors.detach()
        monitors.detach()                    # a no-op, not an error
        assert h.observers == []

    def test_unregister_removes_only_the_given_observer(self):
        h = hierarchy()
        keep = lambda *args: None    # noqa: E731
        drop = lambda *args: None    # noqa: E731
        h.observers.append(keep)
        h.observers.append(drop)
        h.observers.remove(drop)
        assert h.observers == [keep]

    def test_unregistered_observer_stops_firing(self):
        h = hierarchy()
        seen = []
        h.observers.append(lambda *args: seen.append(args))
        h.load_line(0, 100, 0)
        h.observers.pop()
        h.load_line(0, 200, ns_to_fs(1_000))
        assert len(seen) == 1
