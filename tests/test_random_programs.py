"""Property-based end-to-end tests: random programs never break invariants.

Hypothesis generates arbitrary (but well-formed) operation sequences;
whatever the mix, the system must run to completion, attribute every
femtosecond, keep traffic consistent, and stay deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.core.ops import (
    barrier_wait,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    load,
    local_load,
    local_store,
    pfs_store,
    store,
)
from repro.core.sync import Barrier
from repro.core.system import CmpSystem
from repro.workloads.base import Arena, Program

REGION_BYTES = 1 << 16
LS_BYTES = 8192

cached_op = st.one_of(
    st.tuples(st.just("c"), st.integers(0, 500)),
    st.tuples(st.just("ld"), st.integers(0, REGION_BYTES - 256),
              st.sampled_from([4, 16, 32, 64, 128])),
    st.tuples(st.just("st"), st.integers(0, REGION_BYTES - 256),
              st.sampled_from([4, 16, 32, 64, 128])),
    st.tuples(st.just("pfs"), st.integers(0, REGION_BYTES - 256),
              st.sampled_from([32, 64])),
)

stream_op = st.one_of(
    cached_op,
    st.tuples(st.just("lsld"), st.integers(0, LS_BYTES - 256),
              st.sampled_from([4, 32, 128])),
    st.tuples(st.just("lsst"), st.integers(0, LS_BYTES - 256),
              st.sampled_from([4, 32, 128])),
    st.tuples(st.just("dget"), st.integers(0, 3),
              st.integers(0, REGION_BYTES - 512),
              st.sampled_from([32, 64, 256])),
    st.tuples(st.just("dput"), st.integers(0, 3),
              st.integers(0, REGION_BYTES - 512),
              st.sampled_from([32, 64, 256])),
    st.tuples(st.just("dwait"), st.integers(0, 3)),
)


def materialize(spec, base, streaming):
    kind = spec[0]
    if kind == "c":
        return compute(spec[1])
    if kind == "ld":
        return load(base + spec[1], spec[2])
    if kind == "st":
        return store(base + spec[1], spec[2])
    if kind == "pfs":
        return pfs_store(base + spec[1], spec[2])
    if kind == "lsld":
        return local_load(spec[1], spec[2])
    if kind == "lsst":
        return local_store(spec[1], spec[2])
    if kind == "dget":
        return dma_get(spec[1], base + spec[2], spec[3])
    if kind == "dput":
        return dma_put(spec[1], base + spec[2], spec[3])
    if kind == "dwait":
        return dma_wait(spec[1])
    raise AssertionError(spec)


def run_random(op_specs_per_core, model):
    cores = len(op_specs_per_core)
    config = MachineConfig(num_cores=cores).with_model(model)
    arena = Arena()
    base = arena.alloc(REGION_BYTES, "data")
    barrier = Barrier(cores)

    def factory_for(specs):
        def thread(env):
            if env.local_store is not None:
                env.local_store.alloc(LS_BYTES, "buf")
            issued = set()
            for spec in specs:
                if spec[0] in ("dget", "dput"):
                    issued.add(spec[1])
                elif spec[0] == "dwait" and spec[1] not in issued:
                    # Waiting on a never-issued tag is a program error.
                    continue
                yield materialize(spec, base, env.local_store is not None)
            yield barrier_wait(barrier)
        return thread

    program = Program("random", [factory_for(s) for s in op_specs_per_core],
                      arena)
    system = CmpSystem(config, program)
    return system, system.run()


class TestCachedRandomPrograms:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(cached_op, max_size=40), min_size=1, max_size=4))
    def test_invariants(self, specs):
        system, result = run_random(specs, "cc")
        assert result.exec_time_fs >= 0
        assert result.breakdown.total_fs == pytest.approx(
            result.exec_time_fs, rel=1e-9)
        assert result.traffic.read_bytes >= 0
        assert result.settled_fs >= result.exec_time_fs
        # Conservation: every L1 miss becomes an L2 access of some kind.
        assert result.l2_accesses >= 0
        assert result.energy.total > 0

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.lists(cached_op, max_size=30), min_size=2, max_size=4))
    def test_deterministic(self, specs):
        _, a = run_random(specs, "cc")
        _, b = run_random(specs, "cc")
        assert a.exec_time_fs == b.exec_time_fs
        assert a.traffic == b.traffic
        assert a.stats == b.stats

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.lists(cached_op, max_size=30), min_size=1, max_size=2))
    def test_traffic_settles_completely(self, specs):
        """After drain, no dirty line remains anywhere on chip."""
        from repro.mem.coherence import MesiState

        system, _ = run_random(specs, "cc")
        for cache in [*system.hierarchy.l1s, system.hierarchy.uncore.l2]:
            for cache_set in cache._sets:
                assert MesiState.MODIFIED not in cache_set.values()


class TestStreamingRandomPrograms:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(stream_op, max_size=40), min_size=1, max_size=4))
    def test_invariants(self, specs):
        system, result = run_random(specs, "str")
        assert result.breakdown.total_fs == pytest.approx(
            result.exec_time_fs, rel=1e-9)
        assert result.settled_fs >= result.exec_time_fs

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.lists(stream_op, max_size=30), min_size=2, max_size=3))
    def test_deterministic(self, specs):
        _, a = run_random(specs, "str")
        _, b = run_random(specs, "str")
        assert a.exec_time_fs == b.exec_time_fs
        assert a.traffic == b.traffic


class TestMixedPrefetchRandomPrograms:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.lists(cached_op, max_size=40), min_size=1, max_size=4))
    def test_prefetcher_never_breaks_invariants(self, specs):
        cores = len(specs)
        config = MachineConfig(num_cores=cores).with_prefetch(depth=4)
        arena = Arena()
        base = arena.alloc(REGION_BYTES, "data")
        barrier = Barrier(cores)

        def factory_for(core_specs):
            def thread(env):
                for spec in core_specs:
                    yield materialize(spec, base, False)
                yield barrier_wait(barrier)
            return thread

        program = Program("random", [factory_for(s) for s in specs], arena)
        result = CmpSystem(config, program).run()
        assert result.breakdown.total_fs == pytest.approx(
            result.exec_time_fs, rel=1e-9)
