"""Set-associative cache with true-LRU replacement.

One class serves every cache in the system: the per-core L1 D-caches of
the coherent model (which carry MESI states), the streaming model's small
8 KB cache, and the shared 512 KB L2 (which only needs a dirty bit, carried
as M-vs-E state).

Addresses are tracked at line granularity: callers pass *line numbers*
(``addr >> line_shift``), never byte addresses.  Each set is an
``OrderedDict`` from line number to its :class:`MesiState`; insertion
order is the LRU order, with the most recently used line at the end.
Assigning a resident line a new state keeps its LRU position, so a state
change that is not an access (a downgrade, a flush) just assigns it.
Prefetch fills keep their extras in the side table ``fills``.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CacheConfig
from repro.mem.coherence import MesiState


class SetAssocCache:
    """A set-associative, true-LRU cache directory.

    This class is purely functional state (tags, states, LRU); all timing
    and energy accounting live in the hierarchy walker, whose hot paths
    read and write the sets directly.
    """

    __slots__ = ("config", "name", "num_sets", "associativity", "_set_mask",
                 "_sets", "_resident", "fills")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = self.num_sets - 1
        self._sets: list[OrderedDict[int, MesiState]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # Resident-line count, maintained incrementally: occupancy() sits
        # on the debug_invariants monitor hot path, where summing every
        # set per call is O(num_sets) for a quantity that changes by at
        # most one per insert/invalidate.
        self._resident = 0
        #: Resident prefetch fills, line -> ``(ready_fs, prefetched)``: a
        #: demand access before ``ready_fs`` stalls until the fill lands,
        #: and the first demand hit on a ``prefetched`` line re-arms the
        #: (tagged) prefetcher.  Hit paths read it only when non-empty.
        self.fills: dict[int, tuple[int, bool]] = {}

    def lookup(self, line: int) -> MesiState | None:
        """Return the resident line's state, or None.  Does not update LRU."""
        return self._sets[line & self._set_mask].get(line)

    def insert(self, line: int, state: MesiState,
               fill: tuple[int, bool] | None = None
               ) -> tuple[int, MesiState] | None:
        """Install ``line`` as most-recently-used.

        ``fill`` is a prefetch fill's ``(ready_fs, prefetched)``.  Returns
        the evicted victim's ``(line, state)`` if the set was full, else
        None.  Inserting a line that is already resident is an error —
        callers must use :meth:`lookup` first.
        """
        if state is MesiState.INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            raise ValueError(f"{self.name}: line {line:#x} already resident")
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.popitem(last=False)
            self.fills.pop(victim[0], None)
        else:
            self._resident += 1
        cache_set[line] = state
        if fill is not None:
            self.fills[line] = fill
        return victim

    def invalidate(self, line: int) -> MesiState | None:
        """Remove a line; returns its state (for dirty write-back) or None."""
        state = self._sets[line & self._set_mask].pop(line, None)
        if state is not None:
            self._resident -= 1
            if self.fills:
                self.fills.pop(line, None)
        return state

    def occupancy(self) -> int:
        """Total number of resident lines (O(1): counter, not a set walk)."""
        return self._resident

    def clear(self) -> None:
        """Drop every resident line."""
        for cache_set in self._sets:
            cache_set.clear()
        self._resident = 0
        self.fills.clear()
