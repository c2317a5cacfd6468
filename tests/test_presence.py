"""The presence map against the full peer scan it replaced.

Both coherence modes find a miss's supplier through one per-line
presence bitmask and probe only the L1s that hold the line; broadcast
mode still charges the snoops a real broadcast would make.  The oracle
below restores the old walk over every peer (broadcast) or over the
exact sharer set (directory), and the prefetch walks that index the
uncore's ports per line.  Every drawn op sequence must produce the same
returned times, the same counters and the same L1 contents, LRU order
and states, and the presence map must match L1 residency after every op.
"""

from dataclasses import replace

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.config import CacheConfig, CoherenceKind
from repro.mem.coherence import MesiState
from repro.mem.hierarchy import (CacheCoherentHierarchy,
                                 IncoherentCacheHierarchy)

TINY_L1 = CacheConfig(capacity_bytes=512, associativity=2)

COUNTERS = ("load_ops", "store_ops", "load_misses", "store_misses",
            "upgrades", "invalidations_sent", "snoop_lookups",
            "directory_lookups", "cache_to_cache", "l1_writebacks",
            "prefetches_issued", "prefetch_mshr_drops", "bulk_prefetches",
            "flushes", "invalidates", "dirty_invalidates",
            "prefetch_useful", "prefetch_late_fs", "refills_avoided")


class _FullScan:
    """The pre-presence-map walk: probe every candidate peer in turn."""

    def _peers(self, line, requester):
        peers = [c for c in range(len(self.l1s)) if c != requester]
        if not self._directory_mode:
            return peers
        # An exact directory: the sharers are exactly the resident L1s.
        self.directory_lookups += 1
        return [c for c in peers if self.l1s[c].lookup(line) is not None]

    def _find_owner(self, line, requester):
        best = None
        for core in self._peers(line, requester):
            self.snoop_lookups += 1
            entry = self.l1s[core].lookup(line)
            if entry is None:
                continue
            if entry.state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
                return core, entry.state
            if best is None:
                best = (core, entry.state)
        return best

    def _invalidate_peers(self, line, requester):
        my_cluster = self.cluster_of[requester]
        any_remote = False
        for core in self._peers(line, requester):
            self.snoop_lookups += 1
            if self.l1s[core].invalidate(line) is not None:
                self.invalidations_sent += 1
                if self.cluster_of[core] != my_cluster:
                    any_remote = True
        return any_remote

    def _issue_prefetches(self, core, lines, now_fs):
        l1 = self.l1s[core]
        cluster = self.cluster_of[core]
        uncore = self.uncore
        inflight = self._inflight[core]
        if inflight:
            inflight[:] = [t for t in inflight if t > now_fs]
        for pline in lines:
            if len(inflight) >= self._mshr_limit - 1:
                self.prefetch_mshr_drops += 1
                break
            if (l1.lookup(pline) is not None
                    or self._find_owner(pline, core) is not None):
                continue
            self.prefetches_issued += 1
            t = uncore.buses[cluster].req.control(now_fs)
            t = uncore.xbar.up[cluster].control(t)
            t = uncore.l2_read(pline, t)
            t = uncore.xbar.down[cluster].transfer(t, uncore.line_bytes)
            t = uncore.buses[cluster].resp.transfer(t, uncore.line_bytes)
            self._install(core, pline, MesiState.EXCLUSIVE, now_fs,
                          ready_fs=t, prefetched=True)
            inflight.append(t)

    def bulk_prefetch(self, core, first_line, last_line, now_fs):
        l1 = self.l1s[core]
        cluster = self.cluster_of[core]
        uncore = self.uncore
        done = t = now_fs
        for line in range(first_line, last_line + 1):
            if (l1.lookup(line) is not None
                    or self._find_owner(line, core) is not None):
                continue
            self.bulk_prefetches += 1
            t = uncore.buses[cluster].req.control(t)
            t = uncore.xbar.up[cluster].control(t)
            fill = uncore.l2_read(line, t)
            fill = uncore.xbar.down[cluster].transfer(fill, uncore.line_bytes)
            fill = uncore.buses[cluster].resp.transfer(fill, uncore.line_bytes)
            self._install(core, line, MesiState.EXCLUSIVE, now_fs,
                          ready_fs=fill, prefetched=False)
            done = max(done, fill)
        return done


class FullScanCoherent(_FullScan, CacheCoherentHierarchy):
    pass


class FullScanIncoherent(_FullScan, IncoherentCacheHierarchy):
    def _peers(self, line, requester):
        return []


MODES = {
    "broadcast": (CoherenceKind.BROADCAST, CacheCoherentHierarchy,
                  FullScanCoherent),
    "directory": (CoherenceKind.DIRECTORY, CacheCoherentHierarchy,
                  FullScanCoherent),
    "incoherent": (CoherenceKind.BROADCAST, IncoherentCacheHierarchy,
                   FullScanIncoherent),
}

KINDS = ("load", "scan", "store", "pfs", "flush", "invalidate", "bulk")

op_strategy = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 15),                 # core (mod the core count)
    st.integers(0, 15),                 # first line: 2x an L1's 8 lines
    st.integers(0, 3),                  # extra lines for range ops
    st.integers(0, 60),                 # ns since the previous op
)


def _apply(h, op, now_fs):
    kind, core, line, extra, _ = op
    core %= len(h.l1s)
    if kind == "load":
        return h.load_line(core, line, now_fs)
    if kind == "scan":          # sequential misses train the prefetcher
        return [h.load_line(core, n, now_fs)
                for n in range(line, line + extra + 2)]
    if kind == "store":
        return h.store_line(core, line, now_fs)
    if kind == "pfs":
        return h.store_line(core, line, now_fs, no_allocate=True)
    if kind == "flush":
        return h.flush_range(core, line, line + extra, now_fs)
    if kind == "invalidate":
        return h.invalidate_range(core, line, line + extra, now_fs)
    return h.bulk_prefetch(core, line, line + extra, now_fs)


def _trace(cls, config, ops):
    """Run ``ops`` on a fresh hierarchy; return each op's result, the
    counters, the L1 contents in LRU order, and every (op index, line)
    at which the presence map disagreed with L1 residency."""
    h = cls(config, l1_config=TINY_L1)
    now = 0
    returned = []
    drift = []
    for i, op in enumerate(ops):
        now += op[-1] * 1_000_000
        returned.append(_apply(h, op, now))
        for line in range(32):          # prefetches run past line 15
            resident = tuple(c for c, l1 in enumerate(h.l1s)
                             if l1.lookup(line) is not None)
            if h.holders(line) != resident:
                drift.append((i, line))
    counters = {name: getattr(h, name) for name in COUNTERS}
    contents = [[[(e.line, e.state, e.ready_fs, e.prefetched)
                  for e in cache_set.values()] for cache_set in l1._sets]
                for l1 in h.l1s]
    return returned, counters, contents, drift


# No explain phase: its per-example branch tracing over a whole
# simulated op sequence grew a failing run past 700 MB and many minutes
# of shrinking; without it a failure shrinks in under a minute.
@settings(max_examples=150, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(mode=st.sampled_from(sorted(MODES)), cores=st.sampled_from([4, 16]),
       ops=st.lists(op_strategy, min_size=30, max_size=100))
def test_presence_map_matches_full_peer_scan(mode, cores, ops):
    coherence, fast_cls, oracle_cls = MODES[mode]
    config = MachineConfig(num_cores=cores,
                           coherence=coherence).with_prefetch(depth=4)
    # Few MSHRs, so prefetch issue also stops on a full MSHR file.
    config = config.with_(core=replace(config.core, mshr_entries=3))
    returned, counters, contents, drift = _trace(fast_cls, config, ops)
    assert drift == []
    want_returned, want_counters, want_contents, _ = _trace(
        oracle_cls, config, ops)
    assert returned == want_returned
    assert counters == want_counters
    assert contents == want_contents
