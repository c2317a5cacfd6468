"""Directory-based coherence (extension of Section 2.1's design space)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig, run_program
from repro.config import CacheConfig, CoherenceKind
from repro.mem.coherence import MesiState, check_global_invariant
from repro.mem.hierarchy import CacheCoherentHierarchy
from repro.workloads import get_workload


def directory_hierarchy(cores=4):
    cfg = MachineConfig(num_cores=cores,
                        coherence=CoherenceKind.DIRECTORY)
    return CacheCoherentHierarchy(
        cfg, l1_config=CacheConfig(capacity_bytes=512, associativity=2))


def _states(h, line):
    return [
        MesiState.INVALID if (s := l1.lookup(line)) is None else s
        for l1 in h.l1s
    ]


ops_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["load", "store"]),
              st.integers(0, 31)),
    min_size=1, max_size=300,
)


class TestDirectoryProtocol:
    def test_basic_sharing_still_works(self):
        h = directory_hierarchy()
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 10**9)
        assert h.l1s[0].lookup(100) is MesiState.SHARED
        assert h.l1s[1].lookup(100) is MesiState.SHARED
        h.store_line(2, 100, 2 * 10**9)
        assert h.l1s[0].lookup(100) is None
        assert h.l1s[1].lookup(100) is None

    def test_no_broadcast_snoops_on_private_data(self):
        """Misses to unshared lines never touch peer tag arrays."""
        h = directory_hierarchy()
        for line in range(8):
            h.load_line(0, line, line * 10**9)
        assert h.snoop_lookups == 0
        assert h.directory_lookups > 0

    def test_snoops_target_only_sharers(self):
        h = directory_hierarchy(cores=4)
        h.load_line(0, 100, 0)
        h.load_line(1, 100, 10**9)
        before = h.snoop_lookups
        h.store_line(2, 100, 2 * 10**9)
        # Invalidation probes exactly the two sharers (owner scan + inval).
        assert h.snoop_lookups - before <= 4

    @settings(max_examples=60, deadline=None)
    @given(ops_strategy)
    def test_mesi_invariant_holds(self, ops):
        h = directory_hierarchy()
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
    def test_directory_matches_residency(self, ops):
        """The presence map exactly mirrors the L1 tag arrays, in both
        coherence modes (they share one map)."""
        for h in (directory_hierarchy(), CacheCoherentHierarchy(
                MachineConfig(num_cores=4),
                l1_config=CacheConfig(capacity_bytes=512, associativity=2))):
            now = 0
            for core, op, line in ops:
                now += 1_000_000
                if op == "load":
                    h.load_line(core, line, now)
                else:
                    h.store_line(core, line, now)
            actual: dict[int, list[int]] = {}
            for core, l1 in enumerate(h.l1s):
                for cache_set in l1._sets:
                    for line in cache_set:
                        actual.setdefault(line, []).append(core)
            for line in range(32):
                assert h.holders(line) == tuple(actual.get(line, ()))

    @settings(max_examples=25, deadline=None)
    @given(ops_strategy)
    def test_directory_and_broadcast_agree_on_timing_shape(self, ops):
        """Both modes produce the same functional cache contents."""
        hb = CacheCoherentHierarchy(
            MachineConfig(num_cores=4),
            l1_config=CacheConfig(capacity_bytes=512, associativity=2))
        hd = directory_hierarchy()
        now = 0
        for core, op, line in ops:
            now += 1_000_000
            if op == "load":
                hb.load_line(core, line, now)
                hd.load_line(core, line, now)
            else:
                hb.store_line(core, line, now)
                hd.store_line(core, line, now)
        for l1b, l1d in zip(hb.l1s, hd.l1s):
            assert ({line for s in l1b._sets for line in s}
                    == {line for s in l1d._sets for line in s})


class TestSystemLevel:
    def test_directory_cuts_snoop_traffic(self):
        cfg_b = MachineConfig(num_cores=16)
        cfg_d = MachineConfig(num_cores=16,
                              coherence=CoherenceKind.DIRECTORY)
        wl = get_workload("fem")
        b = run_program(cfg_b, wl.build("cc", cfg_b, preset="tiny"))
        d = run_program(cfg_d, wl.build("cc", cfg_d, preset="tiny"))
        assert d.stats["l1.snoop_lookups"] < 0.2 * b.stats["l1.snoop_lookups"]
        # Near-identical timing: the directory is a lookup filter, not a
        # different protocol (supplier selection may differ among equal
        # S-state sharers, hence the small tolerance).
        assert abs(d.exec_time_fs - b.exec_time_fs) < 0.02 * b.exec_time_fs
        assert d.traffic == b.traffic

    def test_wire_spelling_runs_the_directory(self):
        # ``{"coherence": "directory"}`` is how a JSON spec carries the
        # enum: it must run the same machine under the same key.
        from repro.grid.spec import RunSpec

        def spec(coherence):
            return RunSpec("merge", "cc", cores=4, preset="tiny",
                           config_overrides={"coherence": coherence})

        wire, enum = spec("directory"), spec(CoherenceKind.DIRECTORY)
        assert wire.content_key() == enum.content_key()
        assert wire.to_config() == enum.to_config()
        result = wire.execute()
        assert result.to_dict() == enum.execute().to_dict()
        assert result.stats["l1.directory_lookups"] == 1792

    def test_directory_saves_snoop_energy_at_scale(self):
        cfg_b = MachineConfig(num_cores=16)
        cfg_d = MachineConfig(num_cores=16,
                              coherence=CoherenceKind.DIRECTORY)
        wl = get_workload("fem")
        b = run_program(cfg_b, wl.build("cc", cfg_b, preset="tiny"))
        d = run_program(cfg_d, wl.build("cc", cfg_d, preset="tiny"))
        assert d.energy.dcache < b.energy.dcache
