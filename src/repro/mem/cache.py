"""Set-associative cache with true-LRU replacement.

One class serves every cache in the system: the per-core L1 D-caches of
the coherent model (which carry MESI states), the streaming model's small
8 KB cache, and the shared 512 KB L2 (which only needs a dirty bit, carried
as M-vs-E state).

Addresses are tracked at line granularity: callers pass *line numbers*
(``addr >> line_shift``), never byte addresses.  Each set is an
``OrderedDict`` from line number to :class:`CacheLine`; insertion order is
the LRU order, with the most recently used line at the end.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

from repro.config import CacheConfig
from repro.mem.coherence import MesiState

# A global: reading a member through the enum class is several times
# slower, and every L2 install checks it.
_INVALID = MesiState.INVALID


class CacheLine:
    """Metadata for one resident cache line.

    ``ready_fs`` supports in-flight fills (hardware prefetches install the
    line immediately with a future ready time; a demand access before that
    time stalls until the fill lands).  ``prefetched`` implements *tagged*
    prefetching: the first demand hit on a prefetched line re-arms the
    prefetcher.
    """

    __slots__ = ("line", "state", "ready_fs", "prefetched")

    def __init__(self, line: int, state: MesiState,
                 ready_fs: int = 0, prefetched: bool = False) -> None:
        self.line = line
        self.state = state
        self.ready_fs = ready_fs
        self.prefetched = prefetched

    def __repr__(self) -> str:
        return f"CacheLine(line={self.line:#x}, state={self.state.name})"


class SetAssocCache:
    """A set-associative, true-LRU cache directory.

    This class is purely functional state (tags, states, LRU); all timing
    and energy accounting live in the hierarchy walker.
    """

    __slots__ = ("config", "name", "num_sets", "associativity", "_set_mask",
                 "_sets", "_resident")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = self.num_sets - 1
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # Resident-line count, maintained incrementally: occupancy() sits
        # on the debug_invariants monitor hot path, where summing every
        # set per call is O(num_sets) for a quantity that changes by at
        # most one per insert/invalidate.
        self._resident = 0

    def _set_for(self, line: int) -> OrderedDict[int, CacheLine]:
        return self._sets[line & self._set_mask]

    def lookup(self, line: int) -> CacheLine | None:
        """Return the resident line, or None.  Does not update LRU."""
        return self._sets[line & self._set_mask].get(line)

    def touch(self, line: int) -> CacheLine | None:
        """Look up a line and mark it most-recently-used."""
        cache_set = self._sets[line & self._set_mask]
        entry = cache_set.get(line)
        if entry is not None:
            cache_set.move_to_end(line)
        return entry

    def insert(self, line: int, state: MesiState,
               ready_fs: int = 0, prefetched: bool = False) -> CacheLine | None:
        """Install ``line`` as most-recently-used.

        Returns the evicted victim :class:`CacheLine` if the set was full,
        else None.  Inserting a line that is already resident is an error —
        callers must use :meth:`lookup` / :meth:`touch` first.
        """
        if state is _INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            raise ValueError(f"{self.name}: line {line:#x} already resident")
        victim = None
        if len(cache_set) >= self.associativity:
            _, victim = cache_set.popitem(last=False)
        else:
            self._resident += 1
        cache_set[line] = CacheLine(line, state, ready_fs, prefetched)
        return victim

    def invalidate(self, line: int) -> CacheLine | None:
        """Remove a line; returns its metadata (for dirty write-back) or None."""
        victim = self._sets[line & self._set_mask].pop(line, None)
        if victim is not None:
            self._resident -= 1
        return victim

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over every resident line (LRU to MRU within each set)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def occupancy(self) -> int:
        """Total number of resident lines (O(1): counter, not a set walk)."""
        return self._resident

    def clear(self) -> None:
        """Drop every resident line."""
        for cache_set in self._sets:
            cache_set.clear()
        self._resident = 0
