"""The incoherent cache-based model (Table 1's third practical option)."""

import pytest

from repro import MachineConfig, run_workload
from repro.config import CacheConfig, MemoryModel
from repro.core.ops import (
    barrier_wait,
    cache_flush,
    cache_invalidate,
    compute,
    load,
    store,
)
from repro.core.sync import Barrier
from repro.core.system import CmpSystem
from repro.mem.coherence import MesiState
from repro.mem.hierarchy import IncoherentCacheHierarchy
from repro.workloads import get_workload
from repro.workloads.base import Arena, Program


def hierarchy(cores=2):
    cfg = MachineConfig(num_cores=cores).with_model("icc")
    return IncoherentCacheHierarchy(
        cfg, l1_config=CacheConfig(capacity_bytes=1024, associativity=2))


class TestNoCoherenceActions:
    def test_no_snoops_ever(self):
        h = hierarchy()
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 10**9)
        h.store_line(0, 100, 2 * 10**9)
        assert h.snoop_lookups == 0
        assert h.invalidations_sent == 0
        assert h.cache_to_cache == 0

    def test_stale_copies_can_coexist(self):
        """Without coherence, a writer does not invalidate readers —
        the defining (and dangerous) property of the model."""
        h = hierarchy()
        h.load_line(1, 100, 0)
        h.store_line(0, 100, 10**9)
        assert h.l1s[1].lookup(100) is not None     # stale but resident
        assert h.l1s[0].lookup(100).state is MesiState.MODIFIED


class TestFlushInvalidate:
    def test_flush_publishes_to_l2(self):
        h = hierarchy()
        h.store_line(0, 100, 0)
        h.flush_range(0, 100, 100, 10**9)
        assert h.flushes == 1
        entry = h.uncore.l2.lookup(100)
        assert entry is not None and entry.state is MesiState.MODIFIED
        # The line stays cached, now clean.
        assert h.l1s[0].lookup(100).state is MesiState.SHARED

    def test_flush_skips_clean_lines(self):
        h = hierarchy()
        h.load_line(0, 100, 0)
        h.flush_range(0, 100, 100, 10**9)
        assert h.flushes == 0

    def test_invalidate_drops_lines(self):
        h = hierarchy()
        h.load_line(0, 100, 0)
        h.invalidate_range(0, 100, 100, 10**9)
        assert h.invalidates == 1
        assert h.l1s[0].lookup(100) is None

    def test_invalidating_dirty_data_is_flagged_not_lost(self):
        h = hierarchy()
        h.store_line(0, 100, 0)
        h.invalidate_range(0, 100, 100, 10**9)
        assert h.dirty_invalidates == 1
        # The write still reached the L2 (silently losing it would make
        # the traffic model lie).
        assert h.uncore.l2.lookup(100) is not None


class TestProducerConsumer:
    def test_flush_then_invalidate_transfers_data(self):
        """The software communication protocol of the incoherent model."""
        cfg = MachineConfig(num_cores=2).with_model("icc")
        arena = Arena()
        shared = arena.alloc(256, "shared")
        published = Barrier(2)

        def producer(env):
            yield store(shared, 256)
            yield cache_flush(shared, 256)
            yield barrier_wait(published)

        def consumer(env):
            yield load(shared, 256)           # warms a stale copy
            yield barrier_wait(published)
            yield cache_invalidate(shared, 256)
            yield load(shared, 256)           # re-fetches the fresh data

        system = CmpSystem(cfg, Program("pc", [producer, consumer], arena))
        system.run()
        h = system.hierarchy
        assert h.flushes == 8
        assert h.invalidates == 8
        # The consumer's second read missed its L1 and hit the flushed L2.
        assert h.load_misses >= 16

    def test_ops_validated(self):
        with pytest.raises(ValueError):
            cache_flush(-1, 32)
        with pytest.raises(ValueError):
            cache_invalidate(0, 0)


class TestSystemLevel:
    def test_data_parallel_apps_run_incoherently(self):
        for name in ("fir", "depth", "jpeg_enc", "jpeg_dec"):
            r = run_workload(name, model="icc", cores=4, preset="tiny")
            assert r.exec_time_fs > 0
            assert r.stats["l1.snoop_lookups"] == 0

    def test_sharing_apps_rejected(self):
        for name in ("h264", "mpeg2", "merge"):
            with pytest.raises(ValueError, match="incoherent"):
                run_workload(name, model="icc", cores=4, preset="tiny")

    def test_same_performance_without_coherence_energy(self):
        """For disjoint data-parallel code, dropping coherence keeps the
        timing and removes the snoop energy (Section 2.3's coherence
        overhead)."""
        coherent = run_workload("fir", model="cc", cores=16, preset="tiny")
        incoherent = run_workload("fir", model="icc", cores=16, preset="tiny")
        delta = abs(incoherent.exec_time_fs - coherent.exec_time_fs)
        assert delta < 0.02 * coherent.exec_time_fs
        assert incoherent.traffic == coherent.traffic
        assert incoherent.energy.dcache < coherent.energy.dcache


class TestNoPresenceMap:
    """Nothing in the ICC model reads the presence map, so it keeps none."""

    # merge shares lines between synchronization points, so it does not
    # build for ICC; depth is the second data-parallel program here.
    @pytest.mark.parametrize("name", ["fir", "depth"])
    def test_four_core_run_leaves_presence_empty(self, name):
        config = MachineConfig(num_cores=4).with_model("icc")
        program = get_workload(name).build(config.model, config,
                                           preset="tiny")
        system = CmpSystem(config, program)
        system.run()
        assert system.hierarchy.l1_misses > 0
        assert system.hierarchy._presence == {}

    def test_fills_victims_and_invalidates_leave_presence_empty(self):
        h = hierarchy(cores=4)
        for line in range(40):      # 32 lines of L1 each: victims too
            h.load_line(line % 4, line % 16, line * 10**6)
            h.load_line(line % 4, 16 + line, line * 10**6)
        h.invalidate_range(1, 0, 15, 10**9)
        assert h.invalidates > 0
        assert h._presence == {}
        assert h.holders(0) == ()


class TestCacheControlOnCoherentModel:
    def test_flush_works_on_coherent_caches_too(self):
        """flush/invalidate are ordinary cache-control instructions."""
        from repro.mem.hierarchy import CacheCoherentHierarchy

        h = CacheCoherentHierarchy(MachineConfig(num_cores=2))
        h.store_line(0, 100, 0)
        h.flush_range(0, 100, 100, 10**9)
        assert h.flushes == 1
        assert h.uncore.l2.lookup(100) is not None

    def test_invalidate_maintains_directory(self):
        from repro.config import CoherenceKind
        from repro.mem.hierarchy import CacheCoherentHierarchy

        cfg = MachineConfig(num_cores=2, coherence=CoherenceKind.DIRECTORY)
        h = CacheCoherentHierarchy(cfg)
        h.load_line(0, 100, 0)
        h.invalidate_range(0, 100, 100, 10**9)
        assert h.holders(100) == ()
