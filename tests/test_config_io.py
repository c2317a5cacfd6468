"""Configuration serialization (to_dict / from_dict / save / load)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    CoherenceKind,
    MachineConfig,
    MemoryModel,
    WritePolicy,
)


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = MachineConfig()
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    def test_customized_round_trips(self):
        cfg = (MachineConfig(num_cores=16,
                             coherence=CoherenceKind.DIRECTORY)
               .with_model("str").with_clock(3.2).with_bandwidth(12.8)
               .with_prefetch(depth=8))
        cfg = cfg.with_(l1=CacheConfig(
            capacity_bytes=64 * 1024, associativity=4,
            write_policy=WritePolicy.NO_WRITE_ALLOCATE))
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_is_json_serializable(self):
        import json

        text = json.dumps(MachineConfig().to_dict())
        assert "cache-coherent" not in text    # enums stored as values
        assert '"cc"' in text

    def test_save_load(self, tmp_path):
        path = tmp_path / "machine.json"
        cfg = MachineConfig(num_cores=4).with_model("icc")
        cfg.save(path)
        loaded = MachineConfig.load(path)
        assert loaded == cfg
        assert loaded.model is MemoryModel.INCOHERENT

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32), st.sampled_from([0.8, 1.6, 3.2, 6.4]),
           st.sampled_from(["cc", "str", "icc"]),
           st.booleans())
    def test_round_trip_property(self, cores, clock, model, prefetch):
        cfg = MachineConfig(num_cores=cores).with_model(model) \
            .with_clock(clock)
        if prefetch:
            cfg = cfg.with_prefetch()
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg


class TestValidation:
    def test_unknown_key_rejected(self):
        data = MachineConfig().to_dict()
        data["turbo"] = True
        with pytest.raises(ValueError, match="turbo"):
            MachineConfig.from_dict(data)

    def test_invalid_nested_values_rejected(self):
        data = MachineConfig().to_dict()
        data["core"]["clock_ghz"] = -1
        with pytest.raises(ValueError):
            MachineConfig.from_dict(data)

    def test_partial_dict_uses_defaults(self):
        cfg = MachineConfig.from_dict({"num_cores": 12})
        assert cfg.num_cores == 12
        assert cfg.l2 == MachineConfig().l2


class TestOverrideTypes:
    """``with_overrides`` is the one place config values become enums."""

    def test_block_enum_by_value(self):
        cfg = MachineConfig().with_overrides(
            {"l1.write_policy": "no-write-allocate"})
        assert cfg.l1.write_policy is WritePolicy.NO_WRITE_ALLOCATE

    def test_top_level_enum_by_value(self):
        cfg = MachineConfig().with_overrides(
            {"coherence": "directory", "model": "str"})
        assert cfg.coherence is CoherenceKind.DIRECTORY
        assert cfg.model is MemoryModel.STREAMING

    def test_unknown_member_names_field_and_values(self):
        with pytest.raises(ValueError, match="'coherence'.*'broadcast', "
                                             "'directory'"):
            MachineConfig().with_overrides({"coherence": "snoopy"})
        with pytest.raises(ValueError, match="l2.write_policy"):
            MachineConfig().with_overrides({"l2.write_policy": "lazy"})

    def test_block_takes_fields_not_values(self):
        with pytest.raises(ValueError, match="'l1' is a block"):
            MachineConfig.from_dict({"l1": 5})

    def test_int_for_a_float_field_becomes_a_float(self):
        cfg = MachineConfig().with_clock(2).with_bandwidth(3).with_overrides(
            {"l2_latency_ns": 3, "dram.row_hit_latency_ns": 20,
             "interconnect.bus_cycle_ns": 2})
        values = (cfg.core.clock_ghz, cfg.dram.bandwidth_gbps,
                  cfg.l2_latency_ns, cfg.dram.row_hit_latency_ns,
                  cfg.interconnect.bus_cycle_ns)
        assert values == (2.0, 3.0, 3.0, 20.0, 2.0)
        assert all(type(value) is float for value in values)
        assert cfg.to_dict() == MachineConfig.from_dict(cfg.to_dict()).to_dict()
        # Int fields and bools stay as given.
        assert type(cfg.num_cores) is int and cfg.debug_invariants is False

    def test_int_and_float_knobs_share_one_key_and_record(self):
        from repro.grid.spec import RunSpec

        whole = RunSpec("fir", "cc", cores=2, preset="tiny", clock_ghz=2,
                        bandwidth_gbps=6)
        spelled = RunSpec("fir", "cc", cores=2, preset="tiny",
                          clock_ghz=2.0, bandwidth_gbps=6.0)
        assert whole.to_dict() == spelled.to_dict()
        assert whole.content_key() == spelled.content_key()
        assert json.dumps(whole.execute().to_dict(), sort_keys=True) == \
            json.dumps(spelled.execute().to_dict(), sort_keys=True)

    @pytest.mark.parametrize("block", ["l2", "icache"])
    def test_write_policy_of_an_unread_cache_is_refused(self, block):
        # Only l1 and stream_l1 read their write policy; on any other
        # cache the field would change the content key but not the run.
        with pytest.raises(ValueError, match=f"{block}.write_policy"):
            MachineConfig().with_overrides(
                {f"{block}.write_policy": "no-write-allocate"})
        for read in ("l1", "stream_l1"):
            cfg = MachineConfig().with_overrides(
                {f"{read}.write_policy": "no-write-allocate"})
            assert getattr(cfg, read).write_policy \
                is WritePolicy.NO_WRITE_ALLOCATE
