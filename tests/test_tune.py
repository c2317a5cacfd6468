"""The design-space autotuner: space, prior, search, resume, CLI."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CoherenceKind, MachineConfig, MemoryModel, WritePolicy
from repro.energy import machine_area_mm2, sram_area_mm2
from repro.grid.spec import RunSpec
from repro.grid.store import ResultStore
from repro.tune import (
    Candidate,
    DesignPoint,
    DesignSpace,
    GridExecutor,
    TuneError,
    pareto_frontier,
    spearman_rank_correlation,
    tune,
)
from repro.tune.cli import main as tune_main, parse_axes
from repro.tune.report import render_report
from repro.tune.space import AXES, DEFAULT_VALUES

#: A small lattice every search test shares: 2 models x 2 cores x
#: 3 L1 sizes x 2 L2 sizes x 2 prefetch depths x 2 channel counts.
SMALL = {
    "model": ("cc", "str"),
    "cores": (2, 4),
    "l1_kb": (8, 16, 32),
    "l1_assoc": (2,),
    "l2_kb": (256, 512),
    "l2_assoc": (16,),
    "pf_depth": (0, 4),
    "channels": (1, 2),
}


def small_space() -> DesignSpace:
    return DesignSpace(dict(SMALL))


def frontier_keys(result) -> list[str]:
    return [c.point.key() for c in result.frontier]


def member_or_value(kind):
    """An enum field's value as Python or as JSON spells it."""
    return st.sampled_from([*kind, *(member.value for member in kind)])


_points = (st.tuples(*(st.sampled_from(DEFAULT_VALUES[axis]) for axis in AXES))
           .map(lambda combo: DesignPoint(*combo))
           .filter(DesignPoint.is_valid))
_enum_overrides = st.fixed_dictionaries({}, optional={
    "coherence": member_or_value(CoherenceKind),
    **{f"{block}.write_policy": member_or_value(WritePolicy)
       for block in ("l1", "stream_l1")},
})


class TestConfigOverrides:
    def test_with_overrides_rebuilds_nested_blocks(self):
        config = MachineConfig().with_overrides({
            "l1.capacity_bytes": 64 * 1024,
            "l1.associativity": 4,
            "dram.channels": 2,
        })
        assert config.l1.capacity_bytes == 64 * 1024
        assert config.l1.associativity == 4
        assert config.dram.channels == 2
        # Untouched blocks keep their defaults.
        assert config.l2.capacity_bytes == MachineConfig().l2.capacity_bytes

    def test_with_overrides_validates_names(self):
        with pytest.raises(ValueError, match="l9"):
            MachineConfig().with_overrides({"l9.capacity_bytes": 1024})
        with pytest.raises(ValueError, match="no_such_field"):
            MachineConfig().with_overrides({"l1.no_such_field": 1})

    def test_with_overrides_runs_block_validation(self):
        # 3000 bytes / 64B lines / 2 ways -> non-power-of-two sets.
        with pytest.raises(ValueError):
            MachineConfig().with_overrides({"l1.capacity_bytes": 3000})

    def test_spec_overrides_reach_the_simulated_machine(self):
        point = DesignPoint("cc", 2, 64, 4, 1024, 16, 0, 2)
        config = point.to_spec("fir", "tiny").to_config()
        assert config.l1.capacity_bytes == 64 * 1024
        assert config.l2.capacity_bytes == 1024 * 1024
        assert config.dram.channels == 2

    def test_distinct_overrides_distinct_content_keys(self):
        a = DesignPoint("cc", 2, 16, 2, 256, 16, 0, 1).to_spec("fir", "tiny")
        b = DesignPoint("cc", 2, 32, 2, 256, 16, 0, 1).to_spec("fir", "tiny")
        assert a.content_key() != b.content_key()

    @settings(max_examples=50, deadline=None)
    @given(point=_points, enum_overrides=_enum_overrides)
    def test_json_round_trip_keeps_key_and_machine(self, point,
                                                   enum_overrides):
        spec = point.to_spec("fir", "tiny")
        spec = dataclasses.replace(spec, config_overrides={
            **spec.config_overrides, **enum_overrides})
        wire = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert wire.content_key() == spec.content_key()
        assert wire.to_config() == spec.to_config()

    @pytest.mark.parametrize(("point", "enums"), [
        (DesignPoint("cc", 2, 16, 2, 256, 16, 0, 1),
         {"coherence": CoherenceKind.DIRECTORY}),
        (DesignPoint("cc", 4, 32, 4, 512, 8, 4, 2),
         {"coherence": CoherenceKind.DIRECTORY,
          "l1.write_policy": WritePolicy.NO_WRITE_ALLOCATE}),
        (DesignPoint("str", 2, 8, 2, 256, 16, 0, 2),
         {"stream_l1.write_policy": WritePolicy.NO_WRITE_ALLOCATE}),
        (DesignPoint("icc", 2, 16, 2, 512, 16, 0, 1),
         {"l1.write_policy": WritePolicy.NO_WRITE_ALLOCATE}),
    ], ids=["cc-directory", "cc-directory-nwa", "str-nwa", "icc-nwa"])
    def test_string_and_enum_spellings_give_equal_records(self, point, enums):
        spec = point.to_spec("fir", "tiny")

        def spelled(model, overrides):
            return dataclasses.replace(spec, model=model, config_overrides={
                **spec.config_overrides, **overrides})

        strings = spelled(point.model,
                          {path: member.value for path, member in enums.items()})
        members = spelled(MemoryModel(point.model), enums)
        assert strings.to_config() == members.to_config()
        assert strings.execute().to_dict() == members.execute().to_dict()

    def test_spec_dict_roundtrip_preserves_overrides(self):
        spec = DesignPoint("str", 4, 8, 2, 512, 16, 4, 2).to_spec(
            "fir", "tiny")
        again = RunSpec.from_dict(spec.to_dict())
        assert again.content_key() == spec.content_key()


class TestSpace:
    def test_default_space_counts_and_validity(self):
        space = DesignSpace()
        assert space.size == 2 * 4 * 4 * 2 * 3 * 2 * 3 * 3
        first = next(space.points())
        assert first.is_valid()

    def test_baselines_are_table2_shaped(self):
        space = DesignSpace()
        cc = space.baseline("cc")
        assert (cc.cores, cc.l1_kb, cc.l2_kb) == (8, 32, 512)
        assert space.baseline("str").l1_kb == 8

    def test_neighbors_step_one_axis(self):
        space = small_space()
        point = space.baseline("cc")
        for neighbour in space.neighbors(point):
            diffs = [axis for axis in SMALL
                     if getattr(neighbour, axis) != getattr(point, axis)]
            assert len(diffs) == 1

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown design axis"):
            DesignSpace({"l3_kb": (1,)})

    def test_str_l1_axis_targets_stream_cache(self):
        point = DesignPoint("str", 2, 16, 2, 256, 16, 0, 1)
        overrides = point.config_overrides()
        assert "stream_l1.capacity_bytes" in overrides
        assert "l1.capacity_bytes" not in overrides


class TestArea:
    def test_sram_area_scales_with_capacity(self):
        assert sram_area_mm2(64 * 1024) > sram_area_mm2(32 * 1024)
        assert sram_area_mm2(32 * 1024, associativity=16) > \
            sram_area_mm2(32 * 1024, associativity=2)
        assert sram_area_mm2(32 * 1024, tagged=False) < \
            sram_area_mm2(32 * 1024, tagged=True)

    def test_machine_area_breakdown_sums(self):
        breakdown = machine_area_mm2(MachineConfig())
        parts = sum(v for k, v in breakdown.items() if k != "total")
        assert parts == pytest.approx(breakdown["total"])
        assert breakdown["total"] > 0

    def test_more_channels_cost_area(self):
        base = machine_area_mm2(MachineConfig())["total"]
        wide = machine_area_mm2(MachineConfig().with_overrides(
            {"dram.channels": 4}))["total"]
        assert wide > base


class TestSpearman:
    def test_perfect_and_inverse(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == 1.0
        assert spearman_rank_correlation([1, 2, 3], [30, 20, 10]) == -1.0

    def test_ties_and_degenerate(self):
        assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0
        assert spearman_rank_correlation([1], [2]) == 0.0
        rho = spearman_rank_correlation([1, 2, 2, 3], [1, 2, 3, 4])
        assert 0.9 < rho <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1], [1, 2])


class TestFrontier:
    def make(self, key, time_ms, energy_mj):
        point = DesignPoint("cc", 2, int(key), 2, 256, 16, 0, 1)
        c = Candidate(point=point, prior_time_ms=time_ms,
                      prior_energy_mj=energy_mj, area_mm2=10.0)
        c.measured_time_ms = time_ms
        c.measured_energy_mj = energy_mj
        return c

    def test_dominated_points_dropped(self):
        a = self.make(8, 1.0, 3.0)
        b = self.make(16, 2.0, 2.0)
        dominated = self.make(32, 2.5, 2.5)
        frontier = pareto_frontier([dominated, b, a])
        assert [c.measured_time_ms for c in frontier] == [1.0, 2.0]

    def test_unmeasured_and_duplicate_points_skipped(self):
        a = self.make(8, 1.0, 1.0)
        twin = self.make(16, 1.0, 1.0)
        unmeasured = Candidate(
            point=DesignPoint("cc", 2, 64, 2, 256, 16, 0, 1),
            prior_time_ms=0.1, prior_energy_mj=0.1, area_mm2=1.0)
        frontier = pareto_frontier([a, twin, unmeasured])
        assert len(frontier) == 1


class TestSearch:
    def test_budget_below_calibration_rejected(self, tmp_path):
        with pytest.raises(TuneError, match="calibration"):
            tune(["fir"], space=small_space(), budget=1, preset="tiny",
                 store=ResultStore(tmp_path))

    def test_empty_workloads_rejected(self):
        with pytest.raises(TuneError):
            tune([], space=small_space(), budget=8)

    def test_search_measures_within_budget(self, tmp_path):
        result = tune(["fir"], space=small_space(), budget=10,
                      preset="tiny", store=ResultStore(tmp_path))
        assert result.probes == 10
        assert result.runs_launched == 10
        assert result.frontier
        for c in result.frontier:
            assert c.measured
            assert c.area_mm2 > 0
            assert c.prior_ratio() is not None
        assert result.validation["points"] == 10

    def test_same_seed_jobs1_vs_jobs4_identical(self, tmp_path):
        kwargs = dict(space=small_space(), budget=12, preset="tiny",
                      seed=7)
        serial = tune(["fir"], jobs=1,
                      store=ResultStore(tmp_path / "serial"), **kwargs)
        parallel = tune(["fir"], jobs=4,
                        store=ResultStore(tmp_path / "parallel"), **kwargs)
        assert frontier_keys(serial) == frontier_keys(parallel)
        assert [(c.measured_time_ms, c.measured_energy_mj)
                for c in serial.frontier] == \
               [(c.measured_time_ms, c.measured_energy_mj)
                for c in parallel.frontier]
        assert [c.point.key() for c in serial.candidates] == \
               [c.point.key() for c in parallel.candidates]

    def test_seed_changes_exploration(self, tmp_path):
        store = ResultStore(tmp_path)
        a = tune(["fir"], space=small_space(), budget=12, preset="tiny",
                 seed=0, store=store)
        b = tune(["fir"], space=small_space(), budget=12, preset="tiny",
                 seed=99, store=store)
        # Different exploration slices probe different candidate sets
        # (identical sets would mean the seed is dead weight).
        assert {c.point.key() for c in a.candidates} != \
               {c.point.key() for c in b.candidates}

    def test_killed_search_resumes_from_store(self, tmp_path):
        store = ResultStore(tmp_path)

        class DyingExecutor(GridExecutor):
            """Settles two batches, then dies mid-search."""

            def __init__(self):
                super().__init__(jobs=2, store=store)
                self.batches = 0

            def run_batch(self, specs):
                if self.batches == 2:
                    raise KeyboardInterrupt("killed mid-search")
                self.batches += 1
                return super().run_batch(specs)

        with pytest.raises(KeyboardInterrupt):
            tune(["fir"], space=small_space(), budget=12, preset="tiny",
                 seed=0, executor=DyingExecutor())
        partial = ResultStore(tmp_path).stats()["ok"]
        assert 0 < partial < 12

        # Resume: only the unsettled probes launch...
        second = tune(["fir"], space=small_space(), budget=12,
                      preset="tiny", seed=0, jobs=2, store=store)
        assert second.probes == 12
        assert second.store_hits == partial
        assert second.runs_launched == 12 - partial

        # ...and a warm third run launches nothing, same frontier.
        third = tune(["fir"], space=small_space(), budget=12,
                     preset="tiny", seed=0, jobs=2, store=store)
        assert third.runs_launched == 0
        assert third.store_hits == 12
        assert frontier_keys(third) == frontier_keys(second)

    def test_area_cap_prunes_without_probing(self, tmp_path):
        result = tune(["fir"], space=small_space(), budget=8,
                      preset="tiny", store=ResultStore(tmp_path),
                      area_cap_mm2=25.0)
        assert result.pruned > 0
        for c in result.candidates:
            if c.measured:
                assert c.area_mm2 <= 25.0

    def test_report_renders(self, tmp_path):
        result = tune(["fir"], space=small_space(), budget=8,
                      preset="tiny", store=ResultStore(tmp_path))
        text = render_report(result)
        assert "Pareto frontier" in text
        assert "prior/meas" in text
        assert "rank correlation" in text

    def test_artifact_roundtrips_as_json(self, tmp_path):
        result = tune(["fir"], space=small_space(), budget=8,
                      preset="tiny", store=ResultStore(tmp_path))
        out = tmp_path / "frontier.json"
        result.save(out)
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["probes"] == 8
        assert len(doc["frontier"]) == len(result.frontier)
        point = DesignPoint.from_dict(doc["frontier"][0]["point"])
        assert point.key() == doc["frontier"][0]["key"]


class TestCli:
    def test_parse_axes(self):
        values = parse_axes(["cores=2,4", "model=cc"])
        assert values == {"cores": (2, 4), "model": ("cc",)}
        with pytest.raises(SystemExit):
            parse_axes(["cores"])
        with pytest.raises(SystemExit):
            parse_axes(["cores=a,b"])

    def test_space_subcommand(self, capsys):
        assert tune_main(["space"]) == 0
        out = capsys.readouterr().out
        assert "l1_kb" in out and "channels" in out

    def test_search_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        code = tune_main([
            "fir", "--preset", "tiny", "--budget", "6", "--jobs", "2",
            "--store", str(tmp_path / "cache"), "--out", str(out),
            "--no-scatter",
            "--axis", "cores=2", "--axis", "l1_kb=8,16",
            "--axis", "l1_assoc=2", "--axis", "l2_kb=256",
            "--axis", "l2_assoc=16", "--axis", "pf_depth=0",
            "--axis", "channels=1,2"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["frontier"]
        text = capsys.readouterr().out
        assert "Pareto frontier" in text
