"""MESI coherence: state transitions and global invariants.

The property test drives the real :class:`CacheCoherentHierarchy` with
random interleavings of loads and stores from multiple cores and checks,
after every operation, the single-writer / multiple-reader invariant and
read-your-writes data-race-freedom at the directory level.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig
from repro.mem.coherence import MesiState, check_global_invariant
from repro.mem.hierarchy import CacheCoherentHierarchy


class TestStateHelpers:
    def test_dirty(self):
        assert MesiState.MODIFIED.is_dirty
        assert not MesiState.EXCLUSIVE.is_dirty
        assert not MesiState.SHARED.is_dirty

    def test_permissions(self):
        assert MesiState.MODIFIED.can_write
        assert MesiState.EXCLUSIVE.can_write
        assert not MesiState.SHARED.can_write
        assert not MesiState.INVALID.can_read

    def test_invariant_checker_accepts_legal(self):
        check_global_invariant([MesiState.MODIFIED, MesiState.INVALID])
        check_global_invariant([MesiState.SHARED, MesiState.SHARED])
        check_global_invariant([MesiState.EXCLUSIVE])

    def test_invariant_checker_rejects_two_owners(self):
        with pytest.raises(AssertionError):
            check_global_invariant([MesiState.MODIFIED, MesiState.MODIFIED])

    def test_invariant_checker_rejects_owner_plus_sharer(self):
        with pytest.raises(AssertionError):
            check_global_invariant([MesiState.EXCLUSIVE, MesiState.SHARED])


def _states(hierarchy, line):
    return [
        MesiState.INVALID if (state := l1.lookup(line)) is None
        else state
        for l1 in hierarchy.l1s
    ]


def small_hierarchy(cores=4):
    cfg = MachineConfig(num_cores=cores)
    return CacheCoherentHierarchy(
        cfg, l1_config=CacheConfig(capacity_bytes=512, associativity=2)
    )


class TestProtocolTransitions:
    def test_first_load_gets_exclusive(self):
        h = small_hierarchy()
        h.load_line(0, 100, 0)
        assert h.l1s[0].lookup(100) is MesiState.EXCLUSIVE

    def test_second_load_downgrades_to_shared(self):
        h = small_hierarchy()
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 1000)
        assert h.l1s[0].lookup(100) is MesiState.SHARED
        assert h.l1s[1].lookup(100) is MesiState.SHARED
        assert h.cache_to_cache == 1

    def test_store_miss_gets_modified_and_invalidates(self):
        h = small_hierarchy()
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 1000)
        h.store_line(2, 100, 2000)
        assert h.l1s[2].lookup(100) is MesiState.MODIFIED
        assert h.l1s[0].lookup(100) is None
        assert h.l1s[1].lookup(100) is None

    def test_store_hit_on_exclusive_is_silent(self):
        h = small_hierarchy()
        h.load_line(0, 100, 0)
        before = h.invalidations_sent
        h.store_line(0, 100, 1000)
        assert h.l1s[0].lookup(100) is MesiState.MODIFIED
        assert h.invalidations_sent == before
        assert h.upgrades == 0

    def test_store_hit_on_shared_upgrades(self):
        h = small_hierarchy()
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 1000)
        h.store_line(0, 100, 2000)
        assert h.upgrades == 1
        assert h.l1s[0].lookup(100) is MesiState.MODIFIED
        assert h.l1s[1].lookup(100) is None

    def test_load_from_modified_peer_supplies_and_downgrades(self):
        h = small_hierarchy()
        h.store_line(0, 100, 0)
        h.load_line(1, 100, 1000)
        assert h.l1s[0].lookup(100) is MesiState.SHARED
        assert h.l1s[1].lookup(100) is MesiState.SHARED
        # The dirty data was written back to the L2 on the downgrade.
        assert h.uncore.l2.lookup(100) is not None

    def test_store_steals_ownership_from_modified_peer(self):
        h = small_hierarchy()
        h.store_line(0, 100, 0)
        h.store_line(1, 100, 1000)
        assert h.l1s[0].lookup(100) is None
        assert h.l1s[1].lookup(100) is MesiState.MODIFIED


ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),     # core
        st.sampled_from(["load", "store"]),
        st.integers(min_value=0, max_value=31),    # line
    ),
    min_size=1,
    max_size=300,
)


class TestProtocolProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops_strategy)
    def test_global_invariant_holds_under_random_traffic(self, ops):
        h = small_hierarchy()
        now = 0
        for core, op, line in ops:
            now += 1_000_000
            if op == "load":
                h.load_line(core, line, now)
            else:
                h.store_line(core, line, now)
            check_global_invariant(_states(h, line))

    @settings(max_examples=60, deadline=None)
    @given(ops_strategy)
    def test_writer_always_ends_modified(self, ops):
        h = small_hierarchy()
        now = 0
        for core, op, line in ops:
            now += 1_000_000
            if op == "load":
                h.load_line(core, line, now)
            else:
                h.store_line(core, line, now)
                assert h.l1s[core].lookup(line) is MesiState.MODIFIED

    @settings(max_examples=30, deadline=None)
    @given(ops_strategy)
    def test_timing_is_monotonic_per_core(self, ops):
        h = small_hierarchy()
        now = 0
        for core, op, line in ops:
            now += 1_000_000
            if op == "load":
                done = h.load_line(core, line, now)
                assert done >= now
            else:
                stall = h.store_line(core, line, now)
                assert stall >= 0
