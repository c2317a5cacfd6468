"""Processor interpreter: op handling, stall attribution, accounting."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.config import MachineConfig
from repro.core.ops import (
    barrier_wait,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    icache_miss,
    load,
    local_load,
    local_store,
    lock_acquire,
    lock_release,
    pfs_store,
    store,
)
from repro.core.sync import Barrier, Lock
from repro.core.system import CmpSystem
from repro.obs import KernelEventRecorder
from repro.sim.kernel import SimulationError
from repro.units import ns_to_fs
from repro.workloads import get_workload
from repro.workloads.base import Program


def run_single(ops, model="cc", **cfg_kwargs):
    cfg = MachineConfig(num_cores=1, **cfg_kwargs).with_model(model)

    def thread(env):
        yield from iter(ops)

    system = CmpSystem(cfg, Program("test", [thread]))
    result = system.run()
    return system.processors[0], result


class TestCompute:
    def test_cycles_charged_as_useful(self):
        p, _ = run_single([compute(1000)])
        assert p.useful_fs == 1000 * p.cycle_fs
        assert p.instructions == 2000          # default 2 IPC

    def test_explicit_instruction_count(self):
        p, _ = run_single([compute(100, instructions=42)])
        assert p.instructions == 42

    def test_l1_accesses_counted(self):
        p, _ = run_single([compute(100, l1_accesses=64)])
        assert p.word_accesses == 64

    def test_invalid_compute_rejected(self):
        with pytest.raises(ValueError):
            compute(-1)
        with pytest.raises(ValueError):
            compute(1, instructions=-1)


class TestLoadsAndStores:
    def test_load_miss_stalls_core(self):
        p, _ = run_single([load(0x1000, 32)])
        assert p.load_stall_fs > ns_to_fs(70)

    def test_load_hit_does_not_stall(self):
        p, _ = run_single([load(0x1000, 32), load(0x1000, 32)])
        # Only the first access misses.
        assert p.load_stall_fs < ns_to_fs(110)

    def test_multi_line_op_walks_every_line(self):
        p, result = run_single([load(0x1000, 256)])
        assert result.l1_misses == 8
        assert p.word_accesses == 64

    def test_issue_slots_charged_per_access(self):
        p, _ = run_single([load(0x1000, 32, accesses=8), compute(0)])
        assert p.useful_fs == 8 * p.cycle_fs
        assert p.instructions == 8

    def test_store_goes_through_buffer_without_stall(self):
        p, _ = run_single([store(0x1000, 32)])
        assert p.store_stall_fs == 0

    def test_pfs_store_avoids_read_traffic(self):
        _, normal = run_single([store(0x1000, 32)])
        _, with_pfs = run_single([pfs_store(0x1000, 32)])
        assert normal.traffic.read_bytes == 32
        assert with_pfs.traffic.read_bytes == 0

    def test_icache_miss_counts_and_charges_useful(self):
        p, _ = run_single([icache_miss(3)])
        assert p.icache_misses == 3
        assert p.useful_fs == 3 * ns_to_fs(12)


class TestLocalStoreOps:
    def test_local_ops_require_streaming_model(self):
        cfg = MachineConfig(num_cores=1).with_model("str")

        def thread(env):
            env.local_store.alloc(256, "buf")
            yield local_load(0, 256)
            yield local_store(0, 128)

        system = CmpSystem(cfg, Program("test", [thread]))
        system.run()
        ls = system.hierarchy.local_stores[0]
        assert ls.reads == 256
        assert ls.writes == 128
        assert system.processors[0].local_accesses == 64 + 32

    def test_local_op_bounds_checked(self):
        cfg = MachineConfig(num_cores=1).with_model("str")

        def thread(env):
            yield local_load(30_000, 64)   # beyond the 24 KB local store

        system = CmpSystem(cfg, Program("test", [thread]))
        with pytest.raises(Exception):
            system.run()

    def test_dma_on_cached_model_rejected(self):
        with pytest.raises(SimulationError):
            run_single([dma_get(0, 0x1000, 64)], model="cc")


class TestDmaOps:
    def test_dma_wait_charges_sync(self):
        p, _ = run_single(
            [dma_get(0, 0x1000, 4096), dma_wait(0)], model="str")
        assert p.sync_fs > ns_to_fs(70)

    def test_dma_overlapped_with_compute(self):
        """Double-buffering hides the transfer behind computation."""
        p, _ = run_single(
            [dma_get(0, 0x1000, 4096), compute(10000), dma_wait(0)],
            model="str")
        # 10000 cycles at 800 MHz = 12.5 us >> transfer time: no sync stall.
        assert p.sync_fs == 0

    def test_dma_setup_instructions_charged(self):
        cfg_cost = MachineConfig().stream.dma_setup_instructions
        p, _ = run_single([dma_put(0, 0x1000, 64)], model="str")
        assert p.instructions == cfg_cost
        assert p.useful_fs == cfg_cost * p.cycle_fs

    def test_wait_on_unused_tag_raises(self):
        with pytest.raises(SimulationError, match="never issued"):
            run_single([dma_wait(9)], model="str")


class TestAccounting:
    def test_total_time_components_sum_to_finish(self):
        ops = [load(0x1000 + i * 32, 32) for i in range(64)]
        ops.append(compute(5000))
        p, _ = run_single(ops)
        assert p.total_fs == p.finish_fs

    def test_unknown_op_rejected(self):
        with pytest.raises(SimulationError):
            run_single([("bogus",)])

    def test_quantum_yields_do_not_change_results(self):
        ops = [load(0x1000 + i * 32, 32) for i in range(32)]
        p1, r1 = run_single(list(ops), quantum_cycles=50)
        p2, r2 = run_single(list(ops), quantum_cycles=5000)
        assert r1.exec_time_fs == r2.exec_time_fs


class TestDeadlockDetection:
    def test_blocked_core_reported(self):
        from repro.core.sync import Barrier
        barrier = Barrier(2)   # two parties, but only one thread arrives

        def thread(env):
            from repro.core.ops import barrier_wait
            yield barrier_wait(barrier)

        cfg = MachineConfig(num_cores=1)
        system = CmpSystem(cfg, Program("test", [thread]))
        with pytest.raises(SimulationError, match="deadlock"):
            system.run()


class TestCoroutine:
    """The core as a coroutine the kernel resumes."""

    def test_waking_a_finished_core_raises_naming_it(self):
        p, _ = run_single([compute(100)])
        finish_fs, sync_fs = p.finish_fs, p.sync_fs
        with pytest.raises(SimulationError, match="core 0: woken after"):
            p.wake(finish_fs + 10**6)
        assert (p.finish_fs, p.sync_fs) == (finish_fs, sync_fs)

    def test_finished_core_drops_its_callback(self):
        p, _ = run_single([compute(5000)], quantum_cycles=50)
        assert p.done and p._resume is None

    def test_quantum_expiry_requeues_the_core(self, monkeypatch):
        # The fast path off: every op ends a 50-cycle quantum, so the
        # start is followed by one re-dispatch per op.
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        _, result = run_single([compute(50)] * 20, quantum_cycles=50)
        assert result.stats["sim.events"] == 1 + 20


def lock_program() -> Program:
    """Four cores contending for one lock, a barrier between rounds."""
    lock = Lock()
    rounds = Barrier(4)

    def thread(env):
        base = 0x10000 * (env.core_id + 1)
        for r in range(3):
            yield compute(50 * (env.core_id + 1))
            yield lock_acquire(lock)
            yield load(0x100, 64)
            yield compute(300)
            yield store(0x100, 64)
            yield lock_release(lock)
            yield load(base + r * 256, 256)
            yield barrier_wait(rounds)

    return Program("locks", [thread] * 4)


class TestEventStream:
    """``sim.events`` and every dispatch time, pinned in both modes.

    Each digest is the sha256 of the run's ``KernelEventRecorder`` spans
    at ``coalesce_fs=0`` (the dispatch times, run-length encoded),
    recorded when a core re-queued itself with a closing ``sim.at``
    call: re-queuing through the callback's return value must queue
    exactly the same events.  ``REPRO_BLOCKS`` moves neither value.
    """

    PINS = {
        ("bitonic-cc-4", "1"): (1681, "bc1b44c8c41e38ab1599ba52664745b9"
                                      "a330fbcdb4f740463984217bfd150a65"),
        ("bitonic-cc-4", "0"): (1682, "9736cac38dbae921c22ad6fe35b1d92f"
                                      "d5573e80612508030a500888413a53c1"),
        ("fir-str-4", "1"): (72, "068fb44895709d5c835eab095b04c00b"
                                 "0cdd480cf2ba77ac5409e16e83583f48"),
        ("fir-str-4", "0"): (72, "068fb44895709d5c835eab095b04c00b"
                                 "0cdd480cf2ba77ac5409e16e83583f48"),
        ("locks", "1"): (45, "f79f96725fad649cb7ac4def869bfcb0"
                             "2d3d559c56f524ecd7a8fe1095b8b902"),
        ("locks", "0"): (50, "1973da62b53a8b24958599de14b1e938"
                             "2af804f165b7e7b814af1911ed545f6f"),
    }

    @pytest.mark.parametrize("case,fastpath", sorted(PINS))
    def test_event_stream_matches_pin(self, monkeypatch, case, fastpath):
        monkeypatch.setenv("REPRO_FASTPATH", fastpath)
        if case == "locks":
            system = CmpSystem(MachineConfig(num_cores=4), lock_program())
        else:
            name, model, cores = case.split("-")
            cfg = MachineConfig(num_cores=int(cores)).with_model(model)
            system = CmpSystem(cfg, get_workload(name).build(
                model, cfg, preset="tiny"))
        woken = []
        for core in system.processors:
            def wake(release_fs, wake=core.wake):
                woken.append(release_fs)
                wake(release_fs)

            monkeypatch.setattr(core, "wake", wake)
        with KernelEventRecorder(system.sim, coalesce_fs=0) as kernel:
            result = system.run()
        spans = json.dumps(kernel.spans()).encode()
        events = result.stats["sim.events"]
        assert (events, hashlib.sha256(spans).hexdigest()) == \
            self.PINS[case, fastpath]
        assert sum(span[2] for span in kernel.spans()) == events
        if case != "fir-str-4":
            assert woken, "the pinned run never suspended"


#: Runs art-cc-16 (small preset, 256 neurons, original layout) and prints
#: how many times the cores called into the hierarchy walker.
_COUNT_WALKER_CALLS = """
from repro import MachineConfig
from repro.core.system import CmpSystem
from repro.workloads import get_workload

cfg = MachineConfig(num_cores=16).with_model("cc")
program = get_workload("art").build(
    cfg.model, cfg, preset="small",
    overrides={"n_neurons": 256, "layout": "original"})
system = CmpSystem(cfg, program)
hierarchy = system.hierarchy
calls = 0
load_line, store_line = hierarchy.load_line, hierarchy.store_line

def counted(walk):
    def call(*args, **kwargs):
        global calls
        calls += 1
        return walk(*args, **kwargs)
    return call

hierarchy.load_line = counted(load_line)
hierarchy.store_line = counted(store_line)
system.run()
print(calls)
"""


def test_walker_calls_do_not_depend_on_hash_seed():
    """Host work is a function of the run alone: the interpreter keeps
    no state keyed by object identity, whose reuse varies with the
    process's allocation pattern (and so with ``PYTHONHASHSEED``)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", _COUNT_WALKER_CALLS],
                              capture_output=True, text=True, env=env,
                              check=True, timeout=300)
        counts.append(int(proc.stdout))
    assert counts[0] == counts[1] > 0
