"""Additional coverage: preset builds, lock fairness, energy overrides,
write policies, and hierarchy corner cases."""

import pytest

from repro import MachineConfig, run_program
from repro.config import CacheConfig, WritePolicy
from repro.core.ops import compute, lock_acquire, lock_release, store
from repro.core.sync import Lock
from repro.core.system import CmpSystem
from repro.energy.model import EnergyModel, EnergyParams
from repro.workloads import get_workload, workload_names
from repro.workloads.base import Program


@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("preset", ["tiny", "small", "default"])
@pytest.mark.parametrize("model", ["cc", "str"])
def test_every_preset_builds(name, preset, model):
    """Program construction (not execution) must work at every scale."""
    cfg = MachineConfig(num_cores=16).with_model(model)
    program = get_workload(name).build(model, cfg, preset=preset)
    assert program.num_threads == 16


class TestLockFairness:
    def test_waiters_granted_fifo(self):
        lock = Lock()
        order = []

        def make(core_delay):
            def thread(env):
                yield compute(core_delay)
                yield lock_acquire(lock)
                order.append(env.core_id)
                yield compute(10_000)
                yield lock_release(lock)
            return thread

        cfg = MachineConfig(num_cores=4)
        system = CmpSystem(cfg, Program(
            "locks", [make(d) for d in (10, 20, 30, 40)]))
        system.run()
        assert order == [0, 1, 2, 3]


class TestEnergyParamsOverride:
    def test_custom_params_change_the_result(self):
        cfg = MachineConfig(num_cores=2)
        wl = get_workload("fir")
        base = run_program(cfg, wl.build("cc", cfg, preset="tiny"))
        expensive_dram = EnergyParams(dram_pj_per_byte=2000.0)
        system = CmpSystem(cfg, wl.build("cc", cfg, preset="tiny"),
                           energy_params=expensive_dram)
        costly = system.run()
        assert costly.energy.dram > 2 * base.energy.dram
        assert costly.energy.core == pytest.approx(base.energy.core)

    def test_model_reusable_across_systems(self):
        cfg = MachineConfig(num_cores=1)
        model = EnergyModel(cfg)
        wl = get_workload("fir")
        s1 = CmpSystem(cfg, wl.build("cc", cfg, preset="tiny"))
        s1.run()
        e1 = model.compute(s1)
        e2 = model.compute(s1)
        assert e1.total == e2.total


class TestWritePolicies:
    def test_no_write_allocate_machine_runs_end_to_end(self):
        cfg = MachineConfig(num_cores=2).with_(
            l1=CacheConfig(capacity_bytes=32 * 1024, associativity=2,
                           write_policy=WritePolicy.NO_WRITE_ALLOCATE))
        wl = get_workload("fir")
        r = run_program(cfg, wl.build("cc", cfg, preset="tiny"))
        # No allocation on store misses: no refill reads for the output.
        n_bytes = 4 * (1 << 12)
        assert r.traffic.read_bytes == n_bytes
        assert r.traffic.write_bytes == n_bytes

    def test_no_write_allocate_leaves_l1_clean(self):
        from repro.mem.coherence import MesiState
        from repro.mem.hierarchy import CacheCoherentHierarchy

        cfg = MachineConfig(num_cores=1)
        h = CacheCoherentHierarchy(
            cfg, l1_config=CacheConfig(
                capacity_bytes=1024, associativity=2,
                write_policy=WritePolicy.NO_WRITE_ALLOCATE))
        h.store_line(0, 7, 0)
        assert h.l1s[0].lookup(7) is None
        assert h.uncore.l2.lookup(7) is MesiState.MODIFIED


class TestStoreBufferBackpressure:
    def test_sustained_store_misses_eventually_stall(self):
        cfg = MachineConfig(num_cores=1).with_bandwidth(1.6)

        def thread(env):
            for i in range(256):
                yield store(0x100000 + i * 32, 32)

        system = CmpSystem(cfg, Program("stores", [thread]))
        system.run()
        assert system.processors[0].store_stall_fs > 0

    def test_spaced_stores_never_stall(self):
        cfg = MachineConfig(num_cores=1)

        def thread(env):
            for i in range(64):
                yield store(0x100000 + i * 32, 32)
                yield compute(500)

        system = CmpSystem(cfg, Program("stores", [thread]))
        system.run()
        assert system.processors[0].store_stall_fs == 0
