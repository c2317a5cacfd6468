"""Trace recording and offline analysis (repro.trace)."""

import pytest

from repro import MachineConfig
from repro.core.system import CmpSystem
from repro.trace import (
    TraceRecord,
    TraceRecorder,
    footprint,
    hit_rate_for_capacity,
    latency_histogram,
    reuse_distances,
)
from repro.units import ns_to_fs
from repro.workloads import get_workload


def record_run(name="fir", cores=2, model="cc"):
    cfg = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(model, cfg, preset="tiny")
    system = CmpSystem(cfg, program)
    recorder = TraceRecorder(system)
    result = system.run()
    return recorder, system, result


class TestRecorder:
    def test_captures_every_demand_access(self):
        recorder, system, _ = record_run()
        assert len(recorder) == system.hierarchy.l1_ops

    def test_records_well_formed(self):
        recorder, _, result = record_run()
        kinds = {r.kind for r in recorder.records}
        assert kinds == {"ld", "st"}
        for r in recorder.records[:100]:
            assert 0 <= r.core < 2
            assert r.time_fs >= 0
            assert r.latency_fs >= 0
            assert r.time_fs <= result.exec_time_fs

    def test_detach_stops_recording(self):
        cfg = MachineConfig(num_cores=1)
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        recorder = TraceRecorder(system)
        recorder.detach()
        system.run()
        assert len(recorder) == 0

    def test_save_load_round_trip(self, tmp_path):
        recorder, _, _ = record_run()
        path = tmp_path / "trace.jsonl"
        recorder.save(path)
        loaded = TraceRecorder.load(path)
        assert loaded == recorder.records

    def test_tracing_does_not_change_results(self):
        from repro.core.system import run_program

        cfg = MachineConfig(num_cores=2)
        wl = get_workload("fir")
        plain = run_program(cfg, wl.build("cc", cfg, preset="tiny"))
        _, _, traced = record_run()
        assert traced.exec_time_fs == plain.exec_time_fs

    def test_context_manager_attaches_and_detaches_observer(self):
        cfg = MachineConfig(num_cores=1)
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        with TraceRecorder(system) as recorder:
            assert system.hierarchy.observers == [recorder]
        assert recorder.records == []
        assert system.hierarchy.observers == []

    def test_context_manager_detaches_on_raise(self):
        cfg = MachineConfig(num_cores=1)
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        with pytest.raises(RuntimeError, match="boom"):
            with TraceRecorder(system):
                raise RuntimeError("boom")
        # The leak this guards against: a raise inside the with-block
        # leaving the recorder on the observers list would record every
        # later run on this system.
        assert system.hierarchy.observers == []

    def test_detach_is_idempotent_and_never_evicts_a_successor(self):
        cfg = MachineConfig(num_cores=1)
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        first = TraceRecorder(system)
        first.detach()
        first.detach()                       # no-op, not an error
        second = TraceRecorder(system)
        first.detach()                       # must not evict `second`
        assert system.hierarchy.observers == [second]


class TestPinnedTraces:
    """sha256 of ``TraceRecorder.save`` output for two tiny 4-core CC
    runs: every demand access's time, core, kind, line and latency."""

    @pytest.mark.parametrize("name, digest, loads_missing, upgrades, c2c", [
        ("fir", "0db55845bed6a807732034d7c99432b0"
                "0c32fc5ea34074b3361d008f1c35b173", 512, 0, 0),
        ("merge", "07bff9a23b6a71117afc73647ed768fe"
                  "0282c3313e661c71988eef3096a4790b", 576, 64, 640),
    ], ids=["fir", "merge"])
    def test_saved_trace_digest(self, tmp_path, name, digest, loads_missing,
                                upgrades, c2c):
        import hashlib

        recorder, system, _ = record_run(name, cores=4)
        path = tmp_path / "trace.jsonl"
        recorder.save(path)
        assert len(recorder) == system.hierarchy.l1_ops
        assert sum(1 for r in recorder.records
                   if r.kind == "ld" and r.latency_fs > 0) == loads_missing
        assert system.hierarchy.upgrades == upgrades
        assert system.hierarchy.cache_to_cache == c2c
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def rec(i, line, kind="ld", latency=0):
    return TraceRecord(i, 0, kind, line, latency)


class TestReuseDistances:
    def test_cold_accesses_are_minus_one(self):
        assert reuse_distances([rec(0, 1), rec(1, 2)]) == [-1, -1]

    def test_immediate_reuse_is_zero(self):
        assert reuse_distances([rec(0, 1), rec(1, 1)]) == [-1, 0]

    def test_stack_distance_counts_distinct_intervening_lines(self):
        trace = [rec(0, 1), rec(1, 2), rec(2, 3), rec(3, 1)]
        assert reuse_distances(trace) == [-1, -1, -1, 2]

    def test_repeated_intervening_lines_counted_once(self):
        trace = [rec(0, 1), rec(1, 2), rec(2, 2), rec(3, 1)]
        assert reuse_distances(trace) == [-1, -1, 0, 1]

    def test_core_filter(self):
        trace = [TraceRecord(0, 0, "ld", 1, 0), TraceRecord(1, 1, "ld", 9, 0),
                 TraceRecord(2, 0, "ld", 1, 0)]
        assert reuse_distances(trace, core=0) == [-1, 0]


class TestCapacityModel:
    def test_sequential_stream_never_hits(self):
        trace = [rec(i, i) for i in range(100)]
        assert hit_rate_for_capacity(trace, 8) == 0.0

    def test_small_loop_fits(self):
        trace = [rec(i, i % 4) for i in range(100)]
        assert hit_rate_for_capacity(trace, 8) == pytest.approx(0.96)
        assert hit_rate_for_capacity(trace, 2) == 0.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            hit_rate_for_capacity([], 0)

    def test_matches_simulated_locality_shape(self):
        """A bigger ideal cache never hits less on a real trace."""
        recorder, _, _ = record_run("mpeg2")
        loads = [r for r in recorder.records if r.kind == "ld"][:5000]
        small = hit_rate_for_capacity(loads, 64)
        large = hit_rate_for_capacity(loads, 1024)
        assert large >= small


class TestHistograms:
    def test_latency_bands(self):
        trace = [
            rec(0, 1, latency=0),
            rec(1, 2, latency=ns_to_fs(20)),
            rec(2, 3, latency=ns_to_fs(90)),
            rec(3, 4, kind="st", latency=0),     # stores excluded
        ]
        assert latency_histogram(trace) == {"l1": 1, "near": 1, "dram": 1}

    def test_footprint(self):
        trace = [rec(0, 1), rec(1, 2), rec(2, 1)]
        assert footprint(trace) == 2

    def test_real_run_bands_sum_to_loads(self):
        recorder, system, _ = record_run()
        histogram = latency_histogram(recorder.records)
        assert sum(histogram.values()) == system.hierarchy.load_ops
