"""Runtime invariant monitors — pluggable observers over a live simulation.

Every monitor checks one family of invariants after every relevant state
change and raises :class:`~repro.sim.kernel.InvariantViolation` (a typed
:class:`~repro.sim.kernel.SimulationError` that survives ``python -O``)
with cycle-stamped context as soon as a check fails:

* :class:`CoherenceMonitor` — the MESI single-writer/multiple-reader
  invariant over the touched line, after every demand load/store and
  every software flush/invalidate, plus the presence map's agreement
  with L1 residency for that line (coherent hierarchies only; the
  incoherent model violates SWMR *by design* between sync points).
* :class:`DmaRaceMonitor` — DMA-vs-cached-line overlap races in the
  streaming model: a DMA ``get`` overlapping a line some cache holds
  dirty reads stale memory; a DMA ``put`` overlapping any valid cached
  copy silently makes that copy stale.
* :class:`LocalStoreMonitor` — local-store discipline: the configured
  capacity budget (24 KB in the paper) is respected and every recorded
  access falls inside the currently allocated region (catching
  use-after-``reset`` and out-of-bounds offsets).
* :class:`EventQueueMonitor` — event-queue monotonicity: dispatched
  timestamps never decrease.

Every monitor is a plain observer: it attaches by being appended to the
``observers`` list of the component it watches (the hierarchy, each
``DmaEngine``, each ``LocalStore``, the ``Simulator``).  The whole set
is enabled for a run by the ``debug_invariants`` flag of
:class:`~repro.config.MachineConfig`::

    config = MachineConfig(num_cores=8).with_model("str") \
        .with_debug_invariants()
    result = run_program(config, program)   # raises on the first violation

The cost is one Python call per state change, so leave the flag off for
performance experiments.
"""

from __future__ import annotations

from repro.mem.coherence import MesiState, check_global_invariant
from repro.sim.kernel import InvariantViolation


class CoherenceMonitor:
    """Checks the MESI global invariant on every observed line operation.

    It also checks that the hierarchy's presence map records exactly the
    L1s holding the line: a drifting map would silently drop a supplier
    or an invalidation.
    """

    name = "coherence"

    def __init__(self, hierarchy) -> None:
        self.hierarchy = hierarchy
        self.checks = 0

    def __call__(self, kind: str, core: int, line: int, now_fs: int,
                 done_fs: int) -> None:
        self.checks += 1
        hierarchy = self.hierarchy
        states = hierarchy.line_states(line)
        check_global_invariant(states, now_fs=now_fs, line=line)
        if len(states) == 1:
            return                  # one core keeps no presence map
        resident = sum(1 << c for c, state in enumerate(states)
                       if state is not MesiState.INVALID)
        present = sum(1 << c for c in hierarchy.holders(line))
        if present != resident:
            raise InvariantViolation(
                "presence map disagrees with L1 residency",
                now_fs=now_fs,
                context={"line": line, "presence_mask": present,
                         "residency_mask": resident},
            )


class DmaRaceMonitor:
    """Flags DMA transfers that overlap cached copies of the same lines.

    The streaming model's software contract (paper Section 3.3) is that
    DMA regions and cached regions are disjoint: the local store carries
    the streamed data while the small cache carries stack and globals.
    An overlap is exactly the data race streaming software must avoid by
    construction, so it is reported as an invariant violation:

    * ``get`` racing a **dirty** (M) cached line reads stale memory;
    * ``put`` racing **any valid** cached line leaves that cache stale.
    """

    name = "dma-race"

    def __init__(self, hierarchy) -> None:
        self.hierarchy = hierarchy
        self.checks = 0

    def _lines(self, engine, addr: int, nbytes: int, stride: int,
               block: int | None):
        shift = engine.line_bytes.bit_length() - 1
        for block_addr, block_size in engine._blocks(addr, nbytes, stride,
                                                     block):
            first = block_addr >> shift
            last = (block_addr + block_size - 1) >> shift
            yield from range(first, last + 1)

    def __call__(self, kind: str, engine, addr: int, nbytes: int,
                 stride: int, block: int | None, issue_fs: int,
                 start_fs: int, done_fs: int) -> None:
        self.checks += 1
        for line in self._lines(engine, addr, nbytes, stride, block):
            for core, l1 in enumerate(self.hierarchy.l1s):
                state = l1.lookup(line)
                if state is not None and (kind != "get"
                                          or state is MesiState.MODIFIED):
                    raise InvariantViolation(
                        f"DMA {kind} by core {engine.core_id} overlaps a "
                        f"cached line",
                        now_fs=issue_fs,
                        context={"line": line, "cached_by": core,
                                 "state": state.name, "addr": addr,
                                 "nbytes": nbytes},
                    )


class LocalStoreMonitor:
    """Checks local-store capacity budget and access bounds."""

    name = "local-store"

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self.checks = 0

    def __call__(self, kind: str, store, offset: int, num_bytes: int) -> None:
        self.checks += 1
        if store.capacity_bytes > self.budget_bytes:
            raise InvariantViolation(
                "local store exceeds the configured capacity budget",
                context={"capacity_bytes": store.capacity_bytes,
                         "budget_bytes": self.budget_bytes},
            )
        if store.allocated_bytes > self.budget_bytes:
            raise InvariantViolation(
                "local-store allocations exceed the capacity budget",
                context={"allocated_bytes": store.allocated_bytes,
                         "budget_bytes": self.budget_bytes},
            )
        if kind == "access" and offset + num_bytes > store.allocated_bytes:
            raise InvariantViolation(
                "local-store access outside the allocated region "
                "(use-after-reset or out-of-bounds offset)",
                context={"offset": offset, "num_bytes": num_bytes,
                         "allocated_bytes": store.allocated_bytes},
            )


class EventQueueMonitor:
    """Checks that dispatched event timestamps never go backwards."""

    name = "event-queue"

    def __init__(self) -> None:
        self.checks = 0
        self.last_fs = 0

    def __call__(self, time_fs: int) -> None:
        self.checks += 1
        if time_fs < self.last_fs:
            raise InvariantViolation(
                "event queue popped a timestamp out of order",
                now_fs=time_fs,
                context={"previous_fs": self.last_fs},
            )
        self.last_fs = time_fs


class MonitorSet:
    """The monitors attached to one simulation, for stats and reporting."""

    def __init__(self) -> None:
        self.monitors: list = []
        self._attached: list[tuple[list, object]] = []

    def attach(self, observers: list, monitor) -> None:
        """Append ``monitor`` to a component's ``observers`` list."""
        observers.append(monitor)
        self._attached.append((observers, monitor))
        if monitor not in self.monitors:
            self.monitors.append(monitor)

    def detach(self) -> None:
        """Remove every monitor from every list it joined (idempotent).

        The symmetric half of :func:`attach_monitors`: other observers
        stay attached, so a set detached between runs stops checking
        without disturbing them.
        """
        for observers, monitor in self._attached:
            if monitor in observers:
                observers.remove(monitor)
        self._attached = []

    @property
    def total_checks(self) -> int:
        """Invariant checks performed across all monitors."""
        return sum(m.checks for m in self.monitors)

    def summary(self) -> str:
        parts = [f"{m.name}={m.checks}" for m in self.monitors]
        return f"invariant checks: {self.total_checks} ({', '.join(parts)})"


def attach_monitors(system) -> MonitorSet:
    """Attach every applicable monitor to a :class:`~repro.core.system.CmpSystem`.

    Called by ``CmpSystem.__init__`` when the config sets
    ``debug_invariants=True``; usable directly on a hand-built system in
    tests.  Returns the :class:`MonitorSet` for later inspection.
    """
    from repro.mem.hierarchy import (IncoherentCacheHierarchy,
                                     StreamingHierarchy)

    monitors = MonitorSet()
    hierarchy = system.hierarchy
    if not isinstance(hierarchy, IncoherentCacheHierarchy):
        monitors.attach(hierarchy.observers, CoherenceMonitor(hierarchy))
    if isinstance(hierarchy, StreamingHierarchy):
        dma_monitor = DmaRaceMonitor(hierarchy)
        for engine in hierarchy.dma_engines:
            monitors.attach(engine.observers, dma_monitor)
        ls_monitor = LocalStoreMonitor(
            system.config.stream.local_store_bytes)
        for store in hierarchy.local_stores:
            monitors.attach(store.observers, ls_monitor)
    monitors.attach(system.sim.observers, EventQueueMonitor())
    return monitors
