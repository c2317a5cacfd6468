"""Runtime invariant monitors: coherence, DMA races, local store, event queue."""

import pytest

from repro.analysis.monitors import (CoherenceMonitor, DmaRaceMonitor,
                                     EventQueueMonitor, LocalStoreMonitor,
                                     attach_monitors)
from repro.config import CacheConfig, MachineConfig
from repro.core.system import CmpSystem
from repro.mem.coherence import MesiState
from repro.mem.hierarchy import CacheCoherentHierarchy, StreamingHierarchy
from repro.mem.local_store import LocalStore
from repro.sim.kernel import InvariantViolation, SimulationError, Simulator
from repro.workloads import get_workload


def small_cc_hierarchy(cores=4):
    cfg = MachineConfig(num_cores=cores)
    return CacheCoherentHierarchy(
        cfg, l1_config=CacheConfig(capacity_bytes=512, associativity=2))


def small_streaming_hierarchy(cores=4):
    return StreamingHierarchy(MachineConfig(num_cores=cores).with_model("str"))


class TestCoherenceMonitor:
    def test_clean_traffic_passes(self):
        h = small_cc_hierarchy()
        monitor = CoherenceMonitor()
        h.register_observer(monitor)
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 1_000_000)
        h.store_line(2, 100, 2_000_000)
        assert monitor.checks == 3

    def test_corrupted_state_raises_with_context(self):
        h = small_cc_hierarchy()
        monitor = CoherenceMonitor()
        h.register_observer(monitor)
        # Corrupt the protocol state directly: two dirty owners.
        h.l1s[0].insert(100, MesiState.MODIFIED)
        h.l1s[1].insert(100, MesiState.MODIFIED)
        with pytest.raises(InvariantViolation, match="multiple M/E"):
            monitor("load", 0, 100, 5_000_000, h)
        try:
            monitor("load", 0, 100, 5_000_000, h)
        except InvariantViolation as exc:
            assert exc.now_fs == 5_000_000
            assert exc.context["line"] == 100

    def test_drifted_presence_map_raises_with_both_masks(self):
        h = small_cc_hierarchy()
        monitor = CoherenceMonitor()
        h.register_observer(monitor)
        h.load_line(0, 100, 0)
        # Drop the line behind the presence map's back: its bit for
        # core 0 is now stale.
        h.l1s[0].invalidate(100)
        h.l1s[1].insert(100, MesiState.EXCLUSIVE)
        with pytest.raises(InvariantViolation, match="presence map") as info:
            monitor("load", 1, 100, 5_000_000, h)
        assert info.value.now_fs == 5_000_000
        assert info.value.context == {"line": 100, "presence_mask": 0b01,
                                      "residency_mask": 0b10}

    def test_violation_is_a_simulation_error_and_assertion_shim(self):
        # InvariantViolation must survive `python -O` (it is raised, not
        # asserted) while still satisfying legacy AssertionError handlers.
        assert issubclass(InvariantViolation, SimulationError)
        assert issubclass(InvariantViolation, AssertionError)


class TestDmaRaceMonitor:
    def _armed(self, cores=4):
        h = small_streaming_hierarchy(cores)
        monitor = DmaRaceMonitor(h)
        for engine in h.dma_engines:
            engine.observer = monitor
        return h, monitor

    def test_get_racing_dirty_cached_line_raises(self):
        h, _ = self._armed()
        line = 100
        h.store_line(0, line, 0)  # core 0 caches the line dirty
        addr = line * h.uncore.line_bytes
        with pytest.raises(InvariantViolation, match="DMA get"):
            h.dma_engines[1].get(1_000_000, addr, 64)

    def test_get_over_clean_cached_line_is_allowed(self):
        h, monitor = self._armed()
        line = 100
        h.load_line(0, line, 0)  # EXCLUSIVE but clean
        addr = line * h.uncore.line_bytes
        h.dma_engines[1].get(1_000_000, addr, 64)
        assert monitor.checks == 1

    def test_put_racing_any_cached_copy_raises(self):
        h, _ = self._armed()
        line = 200
        h.load_line(2, line, 0)  # clean cached copy would go stale
        addr = line * h.uncore.line_bytes
        with pytest.raises(InvariantViolation, match="DMA put"):
            h.dma_engines[0].put(1_000_000, addr, 32)

    def test_disjoint_transfer_is_clean(self):
        h, monitor = self._armed()
        h.store_line(0, 100, 0)
        far_addr = 4096 * h.uncore.line_bytes
        h.dma_engines[0].get(1_000_000, far_addr, 256)
        h.dma_engines[0].put(2_000_000, far_addr, 256)
        assert monitor.checks == 2

    def test_strided_transfer_checks_every_block(self):
        h, _ = self._armed()
        line_bytes = h.uncore.line_bytes
        h.store_line(3, 10, 0)  # dirty line 10
        # Strided get whose second block lands on line 10.
        with pytest.raises(InvariantViolation):
            h.dma_engines[0].get(1_000_000, 8 * line_bytes, 2 * line_bytes,
                                 stride=2 * line_bytes, block=line_bytes)


class TestLocalStoreMonitor:
    def test_in_bounds_usage_is_clean(self):
        store = LocalStore(1024)
        monitor = LocalStoreMonitor(budget_bytes=1024)
        store.observer = monitor
        offset = store.alloc(256, "buf")
        store.check_range(offset, 256)
        assert monitor.checks == 2

    def test_access_outside_allocation_raises(self):
        store = LocalStore(1024)
        store.observer = LocalStoreMonitor(budget_bytes=1024)
        store.alloc(128, "buf")
        with pytest.raises(InvariantViolation, match="allocated region"):
            store.check_range(0, 512)

    def test_use_after_reset_raises(self):
        store = LocalStore(1024)
        store.observer = LocalStoreMonitor(budget_bytes=1024)
        offset = store.alloc(256, "buf")
        store.reset()
        with pytest.raises(InvariantViolation, match="allocated region"):
            store.check_range(offset, 64)

    def test_over_budget_capacity_raises(self):
        # The paper's streaming model budgets 24 KB per core; a config
        # smuggling in a larger store is flagged on first use.
        store = LocalStore(64 * 1024)
        store.observer = LocalStoreMonitor(budget_bytes=24 * 1024)
        with pytest.raises(InvariantViolation, match="capacity budget"):
            store.alloc(32, "buf")

    def test_high_water_mark_tracked(self):
        store = LocalStore(1024)
        store.alloc(256)
        store.reset()
        store.alloc(128)
        assert store.high_water_bytes == 256


class TestEventQueueMonitor:
    def test_normal_run_counts_pops(self):
        sim = Simulator()
        monitor = EventQueueMonitor(sim)
        for t in (5, 1, 9):
            sim.at(t, lambda: None)
        sim.run()
        assert monitor.checks == 3
        assert monitor.last_fs == 9

    def test_out_of_order_pop_raises(self):
        sim = Simulator()
        monitor = EventQueueMonitor(sim)
        sim.at(100, lambda: None)
        monitor.last_fs = 200  # simulate a corrupted heap
        with pytest.raises(InvariantViolation, match="out of order"):
            sim.queue.pop()


class TestSystemIntegration:
    def _run(self, model, workload="fir"):
        config = (MachineConfig(num_cores=4).with_model(model)
                  .with_debug_invariants())
        program = get_workload(workload).build(config.model, config,
                                               preset="tiny")
        system = CmpSystem(config, program)
        result = system.run()
        return system, result

    def test_cc_run_is_monitored_and_clean(self):
        system, result = self._run("cc")
        assert system.monitors is not None
        assert system.monitors.total_checks > 0
        names = [m.name for m in system.monitors.monitors]
        assert "coherence" in names
        assert "event-queue" in names
        assert result.exec_time_fs > 0

    def test_streaming_run_attaches_dma_and_local_store_monitors(self):
        system, _ = self._run("str")
        names = [m.name for m in system.monitors.monitors]
        assert "dma-race" in names
        assert "local-store" in names
        for engine in system.hierarchy.dma_engines:
            assert engine.observer is not None

    def test_incoherent_model_skips_coherence_monitor(self):
        # The incoherent model violates SWMR between sync points by
        # design; monitoring it for coherence would be a false positive.
        system, _ = self._run("icc")
        names = [m.name for m in system.monitors.monitors]
        assert "coherence" not in names

    def test_monitors_off_by_default(self):
        config = MachineConfig(num_cores=4)
        program = get_workload("fir").build(config.model, config,
                                            preset="tiny")
        system = CmpSystem(config, program)
        assert system.monitors is None
        assert system.hierarchy._observers == []

    def test_summary_renders(self):
        system, _ = self._run("str")
        summary = system.monitors.summary()
        assert "invariant checks" in summary
        assert "dma-race" in summary

    def test_debug_flag_round_trips_through_config_io(self, tmp_path):
        config = MachineConfig(num_cores=2).with_debug_invariants()
        path = tmp_path / "config.json"
        config.save(path)
        loaded = MachineConfig.load(path)
        assert loaded.debug_invariants is True

    def test_attach_monitors_returns_the_set(self):
        config = MachineConfig(num_cores=2)
        program = get_workload("fir").build(config.model, config,
                                            preset="tiny")
        system = CmpSystem(config, program)
        monitors = attach_monitors(system)
        assert monitors.total_checks == 0
        system.run()
        assert monitors.total_checks > 0

    def _armed_system(self, model="cc"):
        config = MachineConfig(num_cores=2).with_model(model)
        program = get_workload("fir").build(config.model, config,
                                            preset="tiny")
        return CmpSystem(config, program)

    def test_detach_restores_fastpath(self):
        system = self._armed_system()
        assert system.hierarchy.fastpath_safe
        monitors = attach_monitors(system)
        assert not system.hierarchy.fastpath_safe
        monitors.detach()
        assert system.hierarchy.fastpath_safe
        monitors.detach()                    # idempotent

    def test_detach_unwinds_streaming_observers_too(self):
        system = self._armed_system(model="str")
        monitors = attach_monitors(system)
        assert any(e.observer is not None
                   for e in system.hierarchy.dma_engines)
        monitors.detach()
        assert all(e.observer is None
                   for e in system.hierarchy.dma_engines)
        assert all(s.observer is None
                   for s in system.hierarchy.local_stores)

    def test_detach_unwraps_the_event_queue(self):
        system = self._armed_system()
        # Bound-method equality (not identity): attribute access mints a
        # fresh bound method each time.
        bare_pop = system.sim.queue.pop
        monitors = attach_monitors(system)
        assert system.sim.queue.pop != bare_pop
        monitors.detach()
        assert system.sim.queue.pop == bare_pop

    def test_detached_monitors_stop_checking(self):
        system = self._armed_system()
        monitors = attach_monitors(system)
        monitors.detach()
        system.run()
        assert monitors.total_checks == 0

    def test_detach_keeps_other_observers(self):
        # Detaching one set never evicts an observer it did not attach.
        system = self._armed_system()
        monitors = attach_monitors(system)
        other = lambda *args: None  # noqa: E731
        system.hierarchy.register_observer(other)
        monitors.detach()
        assert system.hierarchy._observers == [other]
