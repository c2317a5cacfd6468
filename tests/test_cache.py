"""Set-associative cache directory: LRU, eviction, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.mem.cache import SetAssocCache
from repro.mem.coherence import MesiState


def small_cache(capacity=256, assoc=2, line=32):
    return SetAssocCache(CacheConfig(capacity, assoc, line), "test")


def touch(c, line):
    """An access's LRU refresh, as ``load_line`` / ``store_line`` run it
    inline on a hit; returns the line's state or None."""
    cache_set = c._sets[line & c._set_mask]
    state = cache_set.get(line)
    if state is not None:
        cache_set.move_to_end(line)
    return state


class TestBasics:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(5) is None
        c.insert(5, MesiState.EXCLUSIVE)
        assert c.lookup(5) is MesiState.EXCLUSIVE

    def test_insert_invalid_rejected(self):
        with pytest.raises(ValueError):
            small_cache().insert(1, MesiState.INVALID)

    def test_double_insert_rejected(self):
        c = small_cache()
        c.insert(1, MesiState.SHARED)
        with pytest.raises(ValueError):
            c.insert(1, MesiState.SHARED)

    def test_invalidate_returns_entry(self):
        c = small_cache()
        c.insert(9, MesiState.MODIFIED)
        assert c.invalidate(9) is MesiState.MODIFIED
        assert c.lookup(9) is None
        assert c.invalidate(9) is None

    def test_set_mapping(self):
        """Lines that differ only above the index bits share a set."""
        c = small_cache(capacity=256, assoc=2)   # 8 lines, 4 sets
        num_sets = c.num_sets
        c.insert(3, MesiState.SHARED)
        c.insert(3 + num_sets, MesiState.SHARED)
        # Third line in the same set evicts the LRU one.
        victim = c.insert(3 + 2 * num_sets, MesiState.SHARED)
        assert victim == (3, MesiState.SHARED)

    def test_clear(self):
        c = small_cache()
        c.insert(1, MesiState.SHARED)
        c.clear()
        assert c.occupancy() == 0


class TestLru:
    def test_touch_refreshes(self):
        c = small_cache(capacity=128, assoc=2)   # 2 sets
        num_sets = c.num_sets
        a, b, d = 0, num_sets, 2 * num_sets      # all in set 0
        c.insert(a, MesiState.SHARED)
        c.insert(b, MesiState.SHARED)
        touch(c, a)                              # b becomes LRU
        victim = c.insert(d, MesiState.SHARED)
        assert victim[0] == b
        assert c.lookup(a) is not None

    def test_insertion_is_mru(self):
        c = small_cache(capacity=128, assoc=2)
        num_sets = c.num_sets
        c.insert(0, MesiState.SHARED)
        c.insert(num_sets, MesiState.SHARED)
        victim = c.insert(2 * num_sets, MesiState.SHARED)
        assert victim[0] == 0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=500))
    def test_capacity_never_exceeded(self, lines):
        c = small_cache(capacity=512, assoc=4)
        for line in lines:
            if c.lookup(line) is None:
                c.insert(line, MesiState.SHARED)
            else:
                touch(c, line)
        assert c.occupancy() <= c.config.num_lines
        for s in c._sets:
            assert len(s) <= c.associativity

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=300))
    def test_matches_reference_lru(self, lines):
        """The cache behaves exactly like a per-set reference LRU list."""
        assoc = 2
        c = small_cache(capacity=4 * assoc * 32, assoc=assoc)  # 4 sets
        num_sets = c.num_sets
        reference = [[] for _ in range(num_sets)]
        for line in lines:
            ref_set = reference[line % num_sets]
            if touch(c, line) is None:
                c.insert(line, MesiState.SHARED)
                if len(ref_set) == assoc:
                    ref_set.pop(0)
                ref_set.append(line)
            else:
                assert line in ref_set
                ref_set.remove(line)
                ref_set.append(line)
        for set_index in range(num_sets):
            resident = sorted(c._sets[set_index])
            assert resident == sorted(reference[set_index])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 127)),
                    min_size=1, max_size=300))
    def test_occupancy_counter_matches_recount(self, ops):
        """``occupancy()`` is an O(1) resident-line counter; it must track
        inserts, evictions, and invalidations exactly at every step."""
        c = small_cache(capacity=512, assoc=4)
        for invalidate, line in ops:
            if invalidate:
                c.invalidate(line)
            elif c.lookup(line) is None:
                c.insert(line, MesiState.SHARED)
            assert c.occupancy() == sum(len(s) for s in c._sets)
        c.clear()
        assert c.occupancy() == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1023), min_size=50,
                    max_size=400))
    def test_most_recent_line_always_resident(self, lines):
        c = small_cache(capacity=1024, assoc=2)
        for line in lines:
            if touch(c, line) is None:
                c.insert(line, MesiState.SHARED)
            assert c.lookup(line) is not None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(
        ["insert", "fill", "invalidate", "clear"]), st.integers(0, 63)),
        min_size=1, max_size=300))
    def test_fills_never_outlive_their_line(self, ops):
        """Every ``fills`` entry belongs to a resident line, through
        inserts, prefetch fills, evicting inserts, invalidates and
        clears; ``occupancy()`` matches the sets after every step."""
        c = small_cache(capacity=256, assoc=2)   # 4 sets: lines collide
        for step, (op, line) in enumerate(ops):
            if op == "clear":
                c.clear()
            elif op == "invalidate":
                c.invalidate(line)
            elif c.lookup(line) is None:
                fill = (step, step % 2 == 0) if op == "fill" else None
                victim = c.insert(line, MesiState.EXCLUSIVE, fill)
                if victim is not None:
                    assert victim[0] not in c.fills
                assert (line in c.fills) == (fill is not None)
            resident = {line for cache_set in c._sets for line in cache_set}
            assert c.fills.keys() <= resident
            assert c.occupancy() == sum(len(s) for s in c._sets)
        c.clear()
        assert not c.fills and c.occupancy() == 0
