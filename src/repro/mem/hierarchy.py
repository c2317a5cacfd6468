"""The full memory hierarchies cores issue accesses against.

:class:`Uncore` holds everything outside the cores — the per-cluster
buses, the global crossbar, the banked shared L2, and the DRAM channel —
and is shared verbatim by both memory models, which is the paper's central
methodological point: the two models are compared under *identical*
uncore assumptions.

:class:`CacheCoherentHierarchy` adds per-core coherent L1 D-caches (MESI,
cluster-first broadcast), store buffers, and optional hardware stream
prefetchers.

:class:`StreamingHierarchy` reuses the same machinery with the streaming
model's small 8 KB cache as "L1" and adds per-core local stores and DMA
engines.

All walk methods are *per cache line*: callers (the processor model) pass
line numbers, and receive absolute completion timestamps.  Timing uses
occupancy resources, so contention between cores, prefetchers, DMA
engines, and write-backs emerges naturally.
"""

from __future__ import annotations

from repro.config import (CacheConfig, CoherenceKind, MachineConfig,
                          WritePolicy)
from repro.interconnect.fabric import ClusterBus, Crossbar
from repro.mem.cache import SetAssocCache
from repro.mem.coherence import MesiState
from repro.mem.dma import DmaEngine
from repro.mem.dram import DramChannel
from repro.mem.local_store import LocalStore
from repro.mem.prefetcher import StreamPrefetcher
from repro.mem.store_buffer import StoreBuffer
from repro.sim.resources import OccupancyResource
from repro.units import ns_to_fs


class Uncore:
    """Buses, crossbar, shared L2, and the DRAM channel (Figure 1)."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        ic = config.interconnect
        num_clusters = config.num_clusters
        self.buses = [ClusterBus(c, ic) for c in range(num_clusters)]
        self.xbar = Crossbar(num_clusters, ic)
        self.l2 = SetAssocCache(config.l2, "l2")
        self.l2_banks = [
            OccupancyResource(f"l2.bank.{b}", latency_fs=ns_to_fs(config.l2_latency_ns))
            for b in range(num_clusters)
        ]
        self._l2_service_fs = ns_to_fs(ic.crossbar_cycle_ns)
        self._num_banks = len(self.l2_banks)
        self.dram = DramChannel(config.dram)
        self.line_bytes = config.line_bytes
        # L2 statistics
        self.l2_reads = 0
        self.l2_read_hits = 0
        self.l2_writes = 0
        self.l2_write_hits = 0
        self.l2_writebacks = 0
        self.l2_refills_avoided = 0

    def _evict(self, victim, when_fs: int) -> None:
        """Handle an L2 victim: dirty lines are written back to DRAM.

        ``when_fs`` must be the time the *miss was sent* to memory (the
        bank access time), not the fill-completion time: victim data sits
        in a write-back buffer and drains opportunistically, so posting it
        after the fill's full access latency would falsely serialize the
        next demand read behind an entire DRAM round trip.
        """
        if victim is not None and victim.state is MesiState.MODIFIED:
            self.l2_writebacks += 1
            self.dram.write(when_fs, self.line_bytes,
                            addr=victim.line * self.line_bytes)

    def l2_read(self, line: int, now_fs: int) -> tuple[int, bool]:
        """Read one line through the L2.  Returns (completion_fs, hit)."""
        self.l2_reads += 1
        # SetAssocCache.touch, inlined: this is the busiest uncore entry
        # point (every L1 miss lands here).
        l2 = self.l2
        cache_set = l2._sets[line & l2._set_mask]
        entry = cache_set.get(line)
        bank = self.l2_banks[line % self._num_banks]
        sent = bank.serve(now_fs, self._l2_service_fs)
        if entry is not None:
            cache_set.move_to_end(line)
            self.l2_read_hits += 1
            return sent, True
        done = self.dram.read(sent, self.line_bytes,
                              addr=line * self.line_bytes)
        victim = self.l2.insert(line, MesiState.EXCLUSIVE)
        self._evict(victim, sent)
        return done, False

    def l2_write(self, line: int, now_fs: int, refill: bool) -> int:
        """Write one full or partial line into the L2.

        ``refill=False`` is the full-line case (an L1 dirty write-back):
        the L2 allocates and validates the line without reading the stale
        data from memory.  ``refill=True`` is a partial-line write, which
        must fetch the line first.
        """
        self.l2_writes += 1
        entry = self.l2.touch(line)
        bank = self.l2_banks[line % self._num_banks]
        sent = bank.serve(now_fs, self._l2_service_fs)
        if entry is not None:
            self.l2_write_hits += 1
            entry.state = MesiState.MODIFIED
            return sent
        done = sent
        if refill:
            done = self.dram.read(sent, self.line_bytes,
                                  addr=line * self.line_bytes)
        else:
            self.l2_refills_avoided += 1
        victim = self.l2.insert(line, MesiState.MODIFIED)
        self._evict(victim, sent)
        return done

    def dma_miss(self, line: int, sent_fs: int, nbytes: int,
                 write: bool) -> int:
        """Finish a DMA granule that missed the L2; returns its done time.

        ``sent_fs`` is when the bank access sent the miss on (the DMA
        engine's granule loops do the bank access and the hit/miss
        counters themselves).  A write allocates the line dirty without a
        refill, whole line or not: a whole-line put overwrites it, and
        strided scatter output is gathered in the L2 until successive
        commands cover the line.  A whole-line read fetches the line from
        DRAM and allocates it; a sub-line read moves only the requested
        bytes and allocates nothing, the "minimum memory channel
        bandwidth" property of scatter/gather DMA (Section 2.3).
        """
        if write:
            self.l2_refills_avoided += 1
            self._evict(self.l2.insert(line, MesiState.MODIFIED), sent_fs)
            return sent_fs
        done = self.dram.read(sent_fs, nbytes, addr=line * self.line_bytes)
        if nbytes == self.line_bytes:
            self._evict(self.l2.insert(line, MesiState.EXCLUSIVE), sent_fs)
        return done

    def flush(self, now_fs: int) -> int:
        """Write every dirty L2 line back to DRAM (end-of-run settling)."""
        t = now_fs
        modified = MesiState.MODIFIED
        # Walk the per-set dicts directly: lines() is a generator chain,
        # and this walk visits every set of a 16K-line cache per run.
        for cache_set in self.l2._sets:
            for entry in cache_set.values():
                if entry.state is modified:
                    entry.state = MesiState.EXCLUSIVE
                    self.l2_writebacks += 1
                    t = self.dram.write(t, self.line_bytes,
                                        addr=entry.line * self.line_bytes)
        return t


class CacheCoherentHierarchy:
    """Per-core coherent L1s over the shared uncore (the paper's CC model)."""

    def __init__(self, config: MachineConfig,
                 l1_config: CacheConfig | None = None) -> None:
        self.config = config
        self.uncore = Uncore(config)
        l1_config = l1_config or config.l1
        self.l1_config = l1_config
        num_cores = config.num_cores
        self.l1s = [SetAssocCache(l1_config, f"l1.{i}") for i in range(num_cores)]
        self.store_buffers = [
            StoreBuffer(config.core.store_buffer_entries) for _ in range(num_cores)
        ]
        if config.prefetch.enabled:
            self.prefetchers: list[StreamPrefetcher | None] = [
                StreamPrefetcher(config.prefetch) for _ in range(num_cores)
            ]
        else:
            self.prefetchers = [None] * num_cores
        # In-flight fill completion times per core: prefetches occupy
        # MSHRs, and issue stops when the per-core MSHRs are exhausted.
        self._mshr_limit = config.core.mshr_entries
        self._inflight: list[list[int]] = [[] for _ in range(num_cores)]
        cluster_size = config.interconnect.cluster_size
        self.cluster_of = [i // cluster_size for i in range(num_cores)]
        self._no_write_allocate = l1_config.write_policy is WritePolicy.NO_WRITE_ALLOCATE
        # Presence map for both coherence modes: bit c of a line's mask is
        # set while core c's L1 holds it.  With no peers it stays empty.
        self._directory_mode = config.coherence is CoherenceKind.DIRECTORY
        self._presence: dict[int, int] = {}
        self._num_peers = num_cores - 1
        # One shared int per single-holder mask keeps peak RSS down.
        self._core_bits = [1 << c for c in range(num_cores)]
        # A lone broadcast core skips the snoop walk; a directory still counts.
        self._no_peers = num_cores == 1 and not self._directory_mode
        # Per-core interconnect endpoints, pre-resolved: the miss walk is
        # the simulator's hottest call chain after the op loop itself.
        self._core_ports = [
            (self.uncore.buses[cl], self.uncore.xbar.up[cl],
             self.uncore.xbar.down[cl], cl)
            for cl in self.cluster_of
        ]
        #: Optional callable (now_fs, core, kind, line, latency_fs) invoked
        #: for every demand access; installed by repro.trace.TraceRecorder.
        self.trace_hook = None
        #: Invariant observers (repro.analysis.monitors): each is notified
        #: with (kind, core, line, now_fs, hierarchy) after every
        #: state-changing line operation.  Empty unless the config's
        #: ``debug_invariants`` flag attached monitors, so the hot path
        #: pays one falsy check per operation.
        self._observers: list = []
        # Statistics (line-granularity operations)
        self.load_ops = 0
        self.store_ops = 0
        self.load_misses = 0
        self.store_misses = 0
        self.upgrades = 0
        self.invalidations_sent = 0
        self.snoop_lookups = 0
        self.directory_lookups = 0
        self.cache_to_cache = 0
        self.l1_writebacks = 0
        self.prefetches_issued = 0
        self.prefetch_mshr_drops = 0
        self.bulk_prefetches = 0
        self.flushes = 0
        self.invalidates = 0
        self.dirty_invalidates = 0
        self.prefetch_useful = 0
        self.prefetch_late_fs = 0
        self.refills_avoided = 0

    def fold_hit_counters(self, loads_hit: int, stores_hit: int) -> None:
        """Fold a batch of inline-retired L1 hits into the op counters.

        The processor's fast paths (the inline L1 probe of the per-op
        arms and of the block arm) count guaranteed hits in loop-locals
        and fold them here once per scheduling slice — the per-access paths
        (:meth:`load_line` / :meth:`store_line`) bump the same counters
        one at a time, so totals are mode-independent.
        """
        self.load_ops += loads_hit
        self.store_ops += stores_hit

    # ------------------------------------------------------------------
    # Invariant observers (debug mode)
    # ------------------------------------------------------------------

    @property
    def fastpath_safe(self) -> bool:
        """True when the inline L1-hit fast path preserves all side effects.

        Trace hooks and invariant observers fire on *every* demand access,
        including hits; while either is attached, the processor must route
        hits through :meth:`load_line`/:meth:`store_line` so the side
        channels observe them.
        """
        return self.trace_hook is None and not self._observers

    def register_observer(self, observer) -> None:
        """Attach an invariant observer (see :mod:`repro.analysis.monitors`).

        ``observer`` must be callable as
        ``observer(kind, core, line, now_fs, hierarchy)`` where ``kind``
        is one of ``"load"``, ``"store"``, ``"flush"``, ``"invalidate"``.
        Observers run *after* the operation's state changes and may raise
        :class:`~repro.sim.kernel.InvariantViolation`.
        """
        self._observers.append(observer)

    def unregister_observer(self, observer) -> None:
        """Detach an observer registered with :meth:`register_observer`.

        The symmetric removal: once the last observer (and any trace
        hook) is gone, :attr:`fastpath_safe` becomes true again, so a
        monitor detached between runs no longer pins every later run on
        the same system to the slow path.  Idempotent — removing an
        observer that is not (or no longer) attached is a no-op.
        """
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def line_states(self, line: int) -> tuple[MesiState, ...]:
        """The MESI state of ``line`` in every L1 (INVALID when absent)."""
        return tuple(
            entry.state if (entry := l1.lookup(line)) is not None
            else MesiState.INVALID
            for l1 in self.l1s
        )

    def _notify(self, kind: str, core: int, line: int, now_fs: int) -> None:
        for observer in self._observers:
            observer(kind, core, line, now_fs, self)

    # ------------------------------------------------------------------
    # Coherence helpers
    # ------------------------------------------------------------------

    def holders(self, line: int) -> tuple[int, ...]:
        """Cores the presence map records as holding ``line``, ascending
        (exact with two or more cores; one core keeps no map)."""
        mask = self._presence.get(line, 0)
        return tuple(c for c in range(len(self.l1s)) if mask >> c & 1)

    def _find_owner(self, line: int, requester: int) -> tuple[int, MesiState] | None:
        """Return (core, state) of a peer holding ``line``, preferring M/E.

        Probes only the presence map's holders, in ascending core order.
        A directory charges one lookup plus a snoop per holder probed; a
        broadcast charges the peers it would snoop in that order (up to
        the M/E owner, else all), each a tag lookup (Section 3.2).
        """
        mask = self._presence.get(line, 0) & ~(1 << requester)
        owner = best = None
        probed = 0
        while mask:
            core = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            probed += 1
            entry = self.l1s[core].lookup(line)
            if entry is None:
                continue
            if entry.state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
                owner = (core, entry.state)
                break
            if best is None:
                best = (core, entry.state)
        if self._directory_mode:
            self.directory_lookups += 1
            self.snoop_lookups += probed
        elif owner is not None:
            self.snoop_lookups += core + 1 if core < requester else core
        else:
            self.snoop_lookups += self._num_peers
        return owner or best

    def _invalidate_peers(self, line: int, requester: int) -> bool:
        """Invalidate every peer copy; returns True if any was remote.

        Charged like :meth:`_find_owner`, but a broadcast reaches all peers.
        """
        mine = self._core_bits[requester]
        held = self._presence.get(line, 0)
        mask = held & ~mine
        if self._directory_mode:
            self.directory_lookups += 1
            self.snoop_lookups += mask.bit_count()
        else:
            self.snoop_lookups += self._num_peers
        if not mask:
            return False
        if held & mine:
            self._presence[line] = mine
        else:
            del self._presence[line]
        my_cluster = self.cluster_of[requester]
        any_remote = False
        while mask:
            core = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if self.l1s[core].invalidate(line) is not None:
                self.invalidations_sent += 1
                if self.cluster_of[core] != my_cluster:
                    any_remote = True
        return any_remote

    def _drop_holder(self, line: int, core: int) -> None:
        held = self._presence.get(line, 0) & ~self._core_bits[core]
        if held:
            self._presence[line] = held
        else:
            self._presence.pop(line, None)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------

    def _install(self, core: int, line: int, state: MesiState, when_fs: int,
                 ready_fs: int = 0, prefetched: bool = False) -> None:
        """Install a line in a core's L1, handling the victim write-back.

        ``when_fs`` is the *issue* time of the demand access that caused
        the fill, not the fill-completion time: victim write-backs sit in
        a write-back buffer and drain at low priority, so charging their
        resource occupancy at (or before) the demand's own walk keeps
        acquisitions in time order and never blocks a later demand
        request behind a posted write.
        """
        victim = self.l1s[core].insert(line, state, ready_fs, prefetched)
        if self._num_peers:
            presence = self._presence
            bit = self._core_bits[core]
            held = presence.get(line)
            presence[line] = bit if held is None else held | bit
            if victim is not None:
                self._drop_holder(victim.line, core)
        if victim is not None and victim.state is MesiState.MODIFIED:
            self.writeback(core, victim.line, when_fs)

    def writeback(self, core: int, line: int, now_fs: int) -> int:
        """Write a dirty L1 line back to the L2 (posted; returns done time)."""
        self.l1_writebacks += 1
        uncore = self.uncore
        bus, xbar_up, _, _ = self._core_ports[core]
        line_bytes = uncore.line_bytes
        t = bus.req.transfer(now_fs, line_bytes)
        t = xbar_up.transfer(t, line_bytes)
        return uncore.l2_write(line, t, refill=False)

    def _fetch(self, core: int, line: int, now_fs: int, for_write: bool,
               refill: bool = True) -> int:
        """The miss walk: cluster bus, snoop, crossbar, L2, DRAM.

        Returns the time the requested line is installed in the L1.
        """
        uncore = self.uncore
        bus, xbar_up, xbar_down, cluster = self._core_ports[core]
        line_bytes = uncore.line_bytes
        t = bus.req.control(now_fs)

        if self._no_peers:
            owner = None
        else:
            owner = self._find_owner(line, core)
            if for_write and self._invalidate_peers(line, core):
                t = xbar_up.control(t)

        if owner is not None:
            owner_core, owner_state = owner
            owner_cluster = self.cluster_of[owner_core]
            self.cache_to_cache += 1
            if owner_cluster != cluster:
                # Remote supply: request over the crossbar, data back over it.
                t = xbar_up.control(t)
                t = self._core_ports[owner_core][0].resp.transfer(t, line_bytes)
                t = xbar_down.transfer(t, line_bytes)
            t = bus.resp.transfer(t, line_bytes)
            if for_write:
                # Ownership (and any dirty data) moves to the requester;
                # the owner was invalidated above.
                self._install(core, line, MesiState.MODIFIED, now_fs)
            else:
                owner_entry = self.l1s[owner_core].lookup(line)
                if owner_state is MesiState.MODIFIED:
                    # Downgrade with write-back so the L2 holds a clean copy.
                    self.uncore.l2_write(line, t, refill=False)
                if owner_entry is not None:
                    owner_entry.state = MesiState.SHARED
                self._install(core, line, MesiState.SHARED, now_fs)
            return t

        # No on-chip L1 copy: go to the L2 (and DRAM beyond it).
        if for_write and not refill:
            # PFS / no-allocate: validate the line without reading old data.
            self.refills_avoided += 1
            self._install(core, line, MesiState.MODIFIED, now_fs)
            return t
        t = xbar_up.control(t)
        t, _ = uncore.l2_read(line, t)
        t = xbar_down.transfer(t, line_bytes)
        t = bus.resp.transfer(t, line_bytes)
        state = MesiState.MODIFIED if for_write else MesiState.EXCLUSIVE
        self._install(core, line, state, now_fs)
        return t

    def _issue_prefetches(self, core: int, lines: list[int], now_fs: int) -> None:
        """Fetch prefetch candidates and install them with a future ready time."""
        l1 = self.l1s[core]
        bus, xbar_up, xbar_down, _ = self._core_ports[core]
        uncore = self.uncore
        line_bytes = uncore.line_bytes
        inflight = self._inflight[core]
        if inflight:
            inflight[:] = [t for t in inflight if t > now_fs]
        for pline in lines:
            if len(inflight) >= self._mshr_limit - 1:
                self.prefetch_mshr_drops += 1
                break
            if l1.lookup(pline) is not None:
                continue
            if self._find_owner(pline, core) is not None:
                # Keep the prefetcher simple: skip lines another core owns.
                continue
            self.prefetches_issued += 1
            t = bus.req.control(now_fs)
            t = xbar_up.control(t)
            t, _ = uncore.l2_read(pline, t)
            t = xbar_down.transfer(t, line_bytes)
            t = bus.resp.transfer(t, line_bytes)
            self._install(core, pline, MesiState.EXCLUSIVE, now_fs,
                          ready_fs=t, prefetched=True)
            inflight.append(t)

    def bulk_prefetch(self, core: int, first_line: int, last_line: int,
                      now_fs: int) -> int:
        """Software bulk prefetch: fetch a line range into the core's L1.

        The hybrid-model primitive of Section 7 ("bulk transfer
        primitives for cache-based systems could enable more efficient
        macroscopic prefetching"): lines are fetched asynchronously, like
        a DMA get whose destination is the cache.  Demand accesses before
        a line lands wait only for the in-flight fill.  Returns the
        completion time of the last fill (informational; the core does
        not block on it).
        """
        l1 = self.l1s[core]
        bus, xbar_up, xbar_down, _ = self._core_ports[core]
        uncore = self.uncore
        line_bytes = uncore.line_bytes
        done = now_fs
        t = now_fs
        for line in range(first_line, last_line + 1):
            if l1.lookup(line) is not None:
                continue
            if self._find_owner(line, core) is not None:
                # Like the hardware prefetcher: leave shared lines to the
                # demand path's coherence actions.
                continue
            self.bulk_prefetches += 1
            t = bus.req.control(t)
            t = xbar_up.control(t)
            fill, _ = uncore.l2_read(line, t)
            fill = xbar_down.transfer(fill, line_bytes)
            fill = bus.resp.transfer(fill, line_bytes)
            self._install(core, line, MesiState.EXCLUSIVE, now_fs,
                          ready_fs=fill, prefetched=False)
            done = max(done, fill)
        return done

    # ------------------------------------------------------------------
    # Core-facing operations (per line)
    # ------------------------------------------------------------------

    def load_line(self, core: int, line: int, now_fs: int) -> int:
        """Load one line; returns the completion time (== now on an L1 hit)."""
        self.load_ops += 1
        entry = self.l1s[core].touch(line)
        if entry is not None:
            done = now_fs
            if entry.ready_fs > now_fs:
                self.prefetch_late_fs += entry.ready_fs - now_fs
                done = entry.ready_fs
            if entry.prefetched:
                entry.prefetched = False
                self.prefetch_useful += 1
                prefetcher = self.prefetchers[core]
                if prefetcher is not None:
                    self._issue_prefetches(core, prefetcher.on_tagged_hit(line), now_fs)
            if self.trace_hook is not None:
                self.trace_hook(now_fs, core, "ld", line, done - now_fs)
            if self._observers:
                self._notify("load", core, line, now_fs)
            return done
        self.load_misses += 1
        done = self._fetch(core, line, now_fs, for_write=False)
        prefetcher = self.prefetchers[core]
        if prefetcher is not None:
            self._issue_prefetches(core, prefetcher.on_miss(line), now_fs)
        if self.trace_hook is not None:
            self.trace_hook(now_fs, core, "ld", line, done - now_fs)
        if self._observers:
            self._notify("load", core, line, now_fs)
        return done

    def store_line(self, core: int, line: int, now_fs: int,
                   no_allocate: bool = False) -> int:
        """Store to one line; returns the *stall* the core must absorb.

        Store hits and buffered store misses cost the core nothing beyond
        the issue slot; the returned stall is non-zero only when the store
        buffer is full.
        """
        self.store_ops += 1
        if self.trace_hook is not None:
            self.trace_hook(now_fs, core, "st", line, 0)
        entry = self.l1s[core].touch(line)
        if entry is not None:
            if entry.state is MesiState.SHARED:
                self.upgrades += 1
                bus, xbar_up, _, _ = self._core_ports[core]
                t = bus.req.control(now_fs)
                if self._invalidate_peers(line, core):
                    xbar_up.control(t)
            entry.state = MesiState.MODIFIED
            entry.prefetched = False
            if self._observers:
                self._notify("store", core, line, now_fs)
            return 0
        self.store_misses += 1
        if self._no_write_allocate and not no_allocate:
            # Write-through with gathering: push the line toward the L2
            # without allocating in the L1.
            self._invalidate_peers(line, core)
            done = self.writeback(core, line, now_fs)
            if self._observers:
                self._notify("store", core, line, now_fs)
            return self.store_buffers[core].push(now_fs, done)
        refill = not no_allocate
        done = self._fetch(core, line, now_fs, for_write=True, refill=refill)
        if self._observers:
            self._notify("store", core, line, now_fs)
        return self.store_buffers[core].push(now_fs, done)

    # ------------------------------------------------------------------
    # Software cache control (flush / invalidate instructions)
    # ------------------------------------------------------------------

    def flush_range(self, core: int, first_line: int, last_line: int,
                    now_fs: int) -> int:
        """Write back every dirty line of the range; returns when posted.

        The software communication primitive of the incoherent model, and
        an ordinary cache-control instruction on the coherent one.
        """
        l1 = self.l1s[core]
        flushed = now_fs
        for line in range(first_line, last_line + 1):
            entry = l1.lookup(line)
            if entry is not None and entry.state is MesiState.MODIFIED:
                entry.state = MesiState.SHARED
                self.flushes += 1
                flushed = max(flushed, self.writeback(core, line, now_fs))
                if self._observers:
                    self._notify("flush", core, line, now_fs)
        return flushed

    def invalidate_range(self, core: int, first_line: int, last_line: int,
                         now_fs: int) -> None:
        """Drop every cached line of the range.

        Dirty lines are written back first and counted — silently losing
        writes would make the traffic model lie about a software bug.
        """
        l1 = self.l1s[core]
        for line in range(first_line, last_line + 1):
            victim = l1.invalidate(line)
            if victim is not None:
                self.invalidates += 1
                self._drop_holder(line, core)
                if victim.state is MesiState.MODIFIED:
                    self.writeback(core, line, now_fs)
                    self.dirty_invalidates += 1
                if self._observers:
                    self._notify("invalidate", core, line, now_fs)

    # ------------------------------------------------------------------
    # End-of-run settling
    # ------------------------------------------------------------------

    def drain(self, now_fs: int) -> int:
        """Flush dirty L1 and L2 state so off-chip traffic is fully counted.

        Returns the time the memory system goes quiet.  Without this, a
        model that leaves megabytes of dirty output in the L2 would appear
        to use less bandwidth than one that wrote it out during the run.
        """
        t = now_fs
        modified = MesiState.MODIFIED
        for buffer in self.store_buffers:
            t = max(t, buffer.drain_time(now_fs))
        for core, l1 in enumerate(self.l1s):
            for cache_set in l1._sets:
                for entry in cache_set.values():
                    if entry.state is modified:
                        entry.state = MesiState.SHARED
                        t = max(t, self.writeback(core, entry.line, t))
        return max(t, self.uncore.flush(t))

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def l1_misses(self) -> int:
        """Demand load + store misses across all L1s."""
        return self.load_misses + self.store_misses

    @property
    def l1_ops(self) -> int:
        """Demand line operations across all L1s."""
        return self.load_ops + self.store_ops


class IncoherentCacheHierarchy(CacheCoherentHierarchy):
    """Caches without coherence — Table 1's third practical design point.

    No snooping, no invalidation broadcasts, no cache-to-cache transfers:
    locality is hardware-managed but communication is software-managed
    (Section 7 briefly discusses this option).  Software publishes data
    with :meth:`~CacheCoherentHierarchy.flush_range` and observes it with
    :meth:`~CacheCoherentHierarchy.invalidate_range` around
    synchronization points; the model is only meaningful for applications
    whose threads write disjoint cache lines in between.
    """

    def _find_owner(self, line: int, requester: int) -> None:
        return None

    def _invalidate_peers(self, line: int, requester: int) -> bool:
        return False


class StreamingHierarchy(CacheCoherentHierarchy):
    """The streaming model: 8 KB cache + 24 KB local store + DMA per core.

    The small cache serves stack data and globals (Section 3.3) and reuses
    the coherent-cache machinery; the local stores and DMA engines carry
    the streamed data.  Hardware prefetching is a cache-model enhancement
    and is never enabled here.
    """

    def __init__(self, config: MachineConfig) -> None:
        if config.prefetch.enabled:
            config = config.with_(
                prefetch=type(config.prefetch)(enabled=False)
            )
        super().__init__(config, l1_config=config.stream_l1)
        self.local_stores = [
            LocalStore(config.stream.local_store_bytes)
            for _ in range(config.num_cores)
        ]
        self.dma_engines = [
            DmaEngine(i, self.cluster_of[i], self.uncore,
                      config.stream, config.line_bytes)
            for i in range(config.num_cores)
        ]

    def drain(self, now_fs: int) -> int:
        """Settle caches *and* any DMA commands still in flight.

        A thread that exits without a final ``dma_wait`` leaves its
        engine's last command completing after the cores go idle; the
        traffic was already counted, so the settle point must cover it.
        """
        t = super().drain(now_fs)
        for engine in self.dma_engines:
            t = max(t, engine.drain_time(now_fs))
        return t

    @property
    def dma_bytes(self) -> int:
        """Bytes moved by every DMA engine."""
        return sum(e.bytes_read + e.bytes_written for e in self.dma_engines)

    @property
    def dma_commands(self) -> int:
        """Commands issued by every DMA engine."""
        return sum(e.commands for e in self.dma_engines)
