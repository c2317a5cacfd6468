"""Satellite coverage: lossless RunResult serialization and stable keys.

The grid determinism guarantee rests on two facts checked here:

* ``RunResult.to_dict`` → JSON → ``from_dict`` is *bit*-lossless for
  every workload (ints stay ints, floats stay floats, stats survive);
* the content key changes whenever any configuration field changes, and
  only then — memoised or not, and for records already on disk.
"""

import json
import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_workload, workload_names
from repro.config import MachineConfig, MemoryModel
from repro.grid import spec as spec_module
from repro.grid.keys import (
    SCHEMA_VERSION,
    canonical_json,
    content_key,
    jsonable,
)
from repro.grid.spec import RunSpec
from repro.grid.store import MemoryCache
from repro.results import Breakdown, EnergyBreakdown, RunResult, Traffic


@pytest.mark.parametrize(("name", "kwargs"), [
    ("fir", {"model": "str", "cores": 2}),
    ("merge", {"model": "cc", "cores": 2, "prefetch": True,
               "prefetch_depth": 2}),
], ids=["fir-str", "merge-cc-pf2"])
def test_run_workload_is_the_spec_build_path(name, kwargs):
    spec = RunSpec(name, preset="tiny", **kwargs)
    assert run_workload(name, preset="tiny", **kwargs).to_dict() == \
        spec.execute().to_dict()


@pytest.mark.parametrize("name", workload_names())
def test_roundtrip_lossless_every_workload(name):
    result = run_workload(name, cores=2, preset="tiny")
    wire = json.loads(json.dumps(result.to_dict()))
    rebuilt = RunResult.from_dict(wire)
    assert rebuilt == result
    # Exactness, not approximation: the paired fields are identical bits.
    assert rebuilt.exec_time_fs == result.exec_time_fs
    assert rebuilt.breakdown.total_fs == result.breakdown.total_fs
    assert rebuilt.energy.total == result.energy.total
    assert rebuilt.stats == result.stats


def test_roundtrip_preserves_numeric_types():
    result = run_workload("fir", cores=2, preset="tiny")
    wire = json.loads(json.dumps(result.to_dict()))
    assert isinstance(wire["exec_time_fs"], int)
    assert isinstance(wire["traffic"]["read_bytes"], int)


def test_from_dict_rejects_unknown_keys():
    result = run_workload("fir", cores=2, preset="tiny")
    data = result.to_dict()
    data["frobnication_level"] = 3
    with pytest.raises(ValueError, match="frobnication_level"):
        RunResult.from_dict(data)


def test_from_dict_rejects_missing_blocks():
    data = run_workload("fir", cores=2, preset="tiny").to_dict()
    del data["breakdown"]
    with pytest.raises(ValueError, match="breakdown"):
        RunResult.from_dict(data)


@pytest.mark.parametrize("block", ["breakdown", "traffic", "energy"])
def test_from_dict_rejects_bad_nested_keys(block):
    data = run_workload("fir", cores=2, preset="tiny").to_dict()
    unknown = json.loads(json.dumps(data))
    unknown[block]["frobnication_level"] = 3
    with pytest.raises(ValueError, match="frobnication_level"):
        RunResult.from_dict(unknown)
    missing = json.loads(json.dumps(data))
    dropped = next(iter(missing[block]))
    del missing[block][dropped]
    with pytest.raises(ValueError, match=dropped):
        RunResult.from_dict(missing)


def test_from_dict_rejects_missing_scalars_and_stats():
    data = run_workload("fir", cores=2, preset="tiny").to_dict()
    for key in ("workload", "stats"):
        partial = dict(data)
        del partial[key]
        with pytest.raises(ValueError, match=key):
            RunResult.from_dict(partial)


def test_component_roundtrips():
    b = Breakdown(1.5, 2, 3.25, 4)
    assert Breakdown.from_dict(b.to_dict()) == b
    t = Traffic(read_bytes=10, write_bytes=20)
    assert Traffic.from_dict(t.to_dict()) == t
    e = EnergyBreakdown(1e-3, 2e-3, 3e-3, 0.0, 4e-3, 5e-3, 6e-3)
    assert EnergyBreakdown.from_dict(e.to_dict()) == e


class TestContentKey:
    BASE = dict(workload="fir", model="cc", cores=4, clock_ghz=0.8,
                bandwidth_gbps=6.4, prefetch=False, prefetch_depth=4,
                preset="tiny", overrides=None)

    def test_stable_across_instances(self):
        assert RunSpec(**self.BASE).content_key() \
            == RunSpec(**self.BASE).content_key()

    @pytest.mark.parametrize("change", [
        {"workload": "merge"},
        {"model": "str"},
        {"cores": 8},
        {"clock_ghz": 1.6},
        {"bandwidth_gbps": 12.8},
        {"prefetch": True},
        {"prefetch": True, "prefetch_depth": 8},
        {"preset": "small"},
        {"overrides": {"pfs": True}},
    ])
    def test_any_field_change_changes_key(self, change):
        base_key = RunSpec(**self.BASE).content_key()
        changed = RunSpec(**{**self.BASE, **change})
        assert changed.content_key() != base_key

    def test_prefetch_depth_ignored_when_prefetch_off(self):
        # With the prefetcher disabled, depth never reaches the machine
        # config: the two specs describe the same simulation, so the
        # content-addressed store must not fragment on it.
        a = RunSpec(**{**self.BASE, "prefetch_depth": 4})
        b = RunSpec(**{**self.BASE, "prefetch_depth": 8})
        assert a.content_key() == b.content_key()

    def test_override_order_is_irrelevant(self):
        a = RunSpec(**{**self.BASE, "overrides": {"a": 1, "b": 2}})
        b = RunSpec(**{**self.BASE, "overrides": {"b": 2, "a": 1}})
        assert a.content_key() == b.content_key()
        cache = MemoryCache()
        cache.put(a, "settled")
        assert cache.get(b) == "settled"

    def test_schema_stamp_in_key(self):
        payload = {"x": 1}
        key = content_key(payload)
        assert isinstance(key, str) and len(key) == 64
        assert SCHEMA_VERSION >= 1


def reference_key(spec: RunSpec) -> str:
    """The content-key derivation without the memo, kept as it was."""
    config = MachineConfig(num_cores=spec.cores).with_model(spec.model)
    config = config.with_clock(spec.clock_ghz)
    config = config.with_bandwidth(spec.bandwidth_gbps)
    if spec.prefetch:
        config = config.with_prefetch(depth=spec.prefetch_depth)
    if spec.config_overrides:
        config = config.with_overrides(spec.config_overrides)
    return content_key({
        "workload": spec.workload,
        "preset": spec.preset,
        "overrides": jsonable(spec.overrides or {}),
        "config": config.to_dict(),
    })


def outcome(derive, spec):
    """``derive(spec)``, or the type of the error it raises."""
    try:
        return derive(spec)
    except (TypeError, ValueError) as exc:
        return type(exc)


# 1, 1.0 and True are equal and hash alike, yet key differently.
_numbers = st.sampled_from([0, 0.0, False, 1, 1.0, True, -0.0, 2, 2.5])
_leaves = _numbers | st.text(max_size=3) | st.none()
_values = (_leaves
           | st.lists(_leaves, max_size=3)
           | st.lists(_leaves, max_size=3).map(tuple)
           | st.sets(st.integers(-2, 2) | st.text(max_size=2), max_size=3)
           | st.frozensets(st.sampled_from(["a", "b", 1]), max_size=3))
_overrides = (st.none() | st.just({})
              | st.dictionaries(st.sampled_from(["seed", "n_keys", "pfs", "x"]),
                                _values, max_size=3))
_config_overrides = (st.none() | st.just({})
                     | st.dictionaries(
                         st.sampled_from(["dram.channels", "quantum_cycles",
                                          "l1.capacity_bytes"]),
                         st.sampled_from([1, 1.0, True, 2, 32768]),
                         max_size=2))
_specs = st.builds(
    RunSpec,
    workload=st.sampled_from(["fir", "bitonic"]),
    model=st.sampled_from(["cc", "str", "icc", MemoryModel.CACHE_COHERENT,
                           MemoryModel.STREAMING]),
    cores=st.sampled_from([1, 4, 16]),
    clock_ghz=st.sampled_from([0.8, 1, 1.0, 3.2]),
    bandwidth_gbps=st.sampled_from([6.4, 3, 3.0]),
    prefetch=st.booleans(),
    prefetch_depth=st.sampled_from([2, 4]),
    preset=st.sampled_from(["tiny", "small"]),
    overrides=_overrides,
    config_overrides=_config_overrides)


class TestContentKeyMemo:
    """``RunSpec.content_key`` is memoised per process by the spec's value."""

    #: Keys recorded before the memo existed: stores written then must
    #: stay reachable.  They change only with SCHEMA_VERSION or the
    #: package version.
    PINNED = [
        (RunSpec("fir", model="str", cores=8, preset="small"),
         "0a34238a6291909c10d6f4bea0bb1bf1d236d0b410418b2256369282178d7d3a"),
        (RunSpec("bitonic", model="cc", cores=4, clock_ghz=3.2,
                 bandwidth_gbps=12.8, prefetch=True, prefetch_depth=2,
                 preset="tiny", overrides={"n_keys": 1024, "seed": 3}),
         "736f976866531bacdfe4c302288e489280983692ddde670c5218b8aaec7abeef"),
        (RunSpec("fir", model="cc", cores=2, preset="tiny",
                 config_overrides={"l1.capacity_bytes": 65536,
                                   "dram.channels": 4}),
         "1299290a911e25ce82d1857cbdca08d05d112bd175a69e5b1b1f5d39f964b381"),
    ]

    @pytest.mark.parametrize("spec,key", PINNED)
    def test_pinned_keys(self, spec, key):
        spec_module._key_memo.clear()
        assert spec.content_key() == key            # derived
        assert spec.content_key() == key            # memoised
        assert reference_key(spec) == key

    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(_specs, min_size=1, max_size=6),
           order=st.lists(st.integers(0, 5), max_size=12))
    def test_memo_matches_the_derivation(self, specs, order):
        spec_module._key_memo.clear()
        calls = specs + [specs[i % len(specs)] for i in order]
        for spec in calls:
            assert (outcome(RunSpec.content_key, spec)
                    == outcome(reference_key, spec)), spec

    @settings(max_examples=200, deadline=None)
    @given(spec=_specs)
    def test_memo_identity_is_the_canonical_json(self, spec):
        # One memo entry per canonical spec: the identity can neither
        # split two spellings of a spec nor merge two specs.
        identity = canonical_json(spec.to_dict())
        assert spec_module._identity(spec.to_dict()) == identity
        spec_module._key_memo.clear()
        if isinstance(outcome(RunSpec.content_key, spec), str):
            assert list(spec_module._key_memo) == [identity]

    def test_enum_model_shares_the_string_memo_entry(self):
        spec_module._key_memo.clear()
        spec = RunSpec("fir", model=MemoryModel.STREAMING, cores=8,
                       preset="small")
        assert spec.content_key() == self.PINNED[0][1]
        assert len(spec_module._key_memo) == 1
        assert self.PINNED[0][0].content_key() == self.PINNED[0][1]
        assert len(spec_module._key_memo) == 1

    def test_mutated_overrides_rekey(self):
        overrides = {"seed": 1}
        spec = RunSpec("bitonic", preset="tiny", overrides=overrides)
        first = spec.content_key()
        overrides["seed"] = 2
        assert spec.content_key() != first
        assert spec.content_key() == reference_key(spec)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(spec_module, "_KEY_MEMO_ENTRIES", 3)
        spec_module._key_memo.clear()
        for cores in range(1, 9):
            spec = RunSpec("fir", cores=cores, preset="tiny")
            assert spec.content_key() == reference_key(spec)
            assert 1 <= len(spec_module._key_memo) <= 3

    def test_threads_agree_and_keep_the_bound(self, monkeypatch):
        # More threads than cores and a short switch interval, so inserts
        # interleave; an unguarded check-then-clear would overrun the bound.
        monkeypatch.setattr(spec_module, "_KEY_MEMO_ENTRIES", 4)
        spec_module._key_memo.clear()
        specs = [RunSpec("fir", cores=c, clock_ghz=g, preset="tiny")
                 for c in (1, 2, 4) for g in (0.8, 1.6)]
        expected = [reference_key(s) for s in specs] * 3
        seen: list[list[str]] = []
        overruns: list[int] = []

        def worker():
            keys = []
            for spec in specs * 3:
                keys.append(spec.content_key())
                if len(spec_module._key_memo) > 4:
                    overruns.append(len(spec_module._key_memo))
            seen.append(keys)

        threads = [threading.Thread(target=worker)
                   for _ in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * len(threads)
        assert overruns == []


class TestFreeze:
    """The canonical form behind every run key (``keys.jsonable``)."""

    def test_dict_order_independent(self):
        assert canonical_json({"a": 1, "b": [2, 3]}) == \
            canonical_json({"b": [2, 3], "a": 1})

    def test_sets_are_order_independent(self):
        assert jsonable({"keys": {3, 1, 2}}) == jsonable({"keys": {2, 3, 1}})
        assert jsonable(frozenset("ab")) == jsonable(set("ba"))

    def test_set_never_collides_with_list(self):
        assert jsonable({1, 2}) != jsonable([1, 2])

    def test_jsonable_rejects_non_scalar_leaf(self):
        with pytest.raises(TypeError, match="run-key leaf"):
            jsonable({"bad": object()})

    def test_nested_structures(self):
        value = {"grid": [{1, 2}, ("a", {"x": None})]}
        assert canonical_json(value) == \
            canonical_json({"grid": [{2, 1}, ("a", {"x": None})]})
