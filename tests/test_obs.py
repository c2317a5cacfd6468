"""The observability layer (repro.obs): metrics, series, trace export.

The load-bearing contract: **observing a run must not change it**.  The
metrics registry is pull-model (no hooks), the series sampler drives the
simulator through ``drain_until`` (no events of its own), and the DMA /
kernel recorders are observers off the processor fast path — so a
fully-instrumented run stays bit-identical to a bare one, including
``stats["sim.events"]``.
"""

import json

import pytest

from repro import MachineConfig
from repro.analysis.monitors import attach_monitors
from repro.core.system import CmpSystem
from repro.obs import (
    COUNTER,
    GAUGE,
    DmaCommandRecorder,
    KernelEventRecorder,
    Metric,
    MetricsRegistry,
    MetricsSampler,
    export_chrome_trace,
    render_report,
    save_chrome_trace,
    validate_chrome_trace,
)
from repro.trace import TraceRecorder
from repro.units import ns_to_fs
from repro.workloads import get_workload


def build_system(name="fir", cores=2, model="cc"):
    cfg = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(model, cfg, preset="tiny")
    return CmpSystem(cfg, program)


class TestMetric:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            Metric("x", "x", "histogram", "ops", lambda: 0)

    def test_value_reads_live_state(self):
        box = {"n": 1}
        metric = Metric("x", "x", COUNTER, "ops", lambda: box["n"])
        assert metric.value() == 1
        box["n"] = 7
        assert metric.value() == 7


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a.n", "a", "ops", lambda: 0)
        with pytest.raises(ValueError, match="duplicate"):
            registry.gauge("a.n", "a", "ops", lambda: 0)

    def test_collect_and_deltas(self):
        box = {"c": 10, "g": 5}
        registry = MetricsRegistry()
        registry.counter("c", "x", "ops", lambda: box["c"])
        registry.gauge("g", "x", "bytes", lambda: box["g"])
        first = registry.collect()
        box["c"], box["g"] = 25, 3
        second = registry.collect()
        # Counters delta, gauges pass through; None means start-of-time.
        assert registry.deltas(first, second) == {"c": 15, "g": 3}
        assert registry.deltas(None, first) == {"c": 10, "g": 5}

    def test_components_group_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("a.x", "a", "ops", lambda: 0)
        registry.counter("b.x", "b", "ops", lambda: 0)
        registry.counter("a.y", "a", "ops", lambda: 0)
        groups = registry.components()
        assert list(groups) == ["a", "b"]
        assert [m.name for m in groups["a"]] == ["a.x", "a.y"]


class TestFromSystem:
    def test_enumerates_cc_components(self):
        system = build_system(cores=2, model="cc")
        registry = MetricsRegistry.from_system(system)
        names = set(registry.names())
        assert {"sim.events", "core.0.instructions", "core.1.instructions",
                "l1.0.occupancy", "l1.load_ops", "l2.reads", "l2.occupancy",
                "dram.read_bytes"} <= names
        # Every calendar reports its first-fit backfills.
        assert {"bus.0.req.backfills", "xbar.down.0.backfills",
                "l2.bank.0.backfills", "dram.ch.0.backfills"} <= names
        # Coherent model has no DMA engines or local stores.
        assert not any(n.startswith(("dma.", "ls.")) for n in names)

    def test_enumerates_streaming_components(self):
        system = build_system(cores=2, model="str")
        names = set(MetricsRegistry.from_system(system).names())
        assert {"dma.0.commands", "dma.1.bytes_read",
                "ls.0.allocated_bytes", "ls.1.high_water_bytes"} <= names

    def test_enumeration_attaches_nothing(self):
        system = build_system()
        MetricsRegistry.from_system(system)
        assert system.hierarchy.observers == []

    def test_counters_match_result_after_run(self):
        system = build_system()
        registry = MetricsRegistry.from_system(system)
        result = system.run()
        values = registry.collect()
        assert values["sim.events"] == result.stats["sim.events"]
        assert values["l1.load_ops"] == system.hierarchy.load_ops
        assert values["dram.read_bytes"] == \
            system.hierarchy.uncore.dram.read_bytes

    @pytest.mark.parametrize("model", ["cc", "str", "icc"])
    def test_every_stat_is_a_metric_of_equal_value(self, model):
        # One catalog: each record key is registered under its own name
        # and reads the value the record holds.
        system = build_system(model=model)
        registry = MetricsRegistry.from_system(system)
        result = system.run()
        values = registry.collect()
        assert {key: values[key] for key in result.stats} == result.stats
        assert list(result.stats) == registry.names()[:len(result.stats)]
        assert registry.get("dram.utilization").kind == GAUGE

    def test_every_calendar_registers_its_requests(self):
        cfg = MachineConfig(num_cores=2).with_overrides({"dram.channels": 2})
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        names = set(MetricsRegistry.from_system(system).names())
        uncore = system.hierarchy.uncore
        calendars = [*uncore.l2_banks, *uncore.dram.channels(),
                     *uncore.xbar.links(),
                     *(link for bus in uncore.buses for link in bus.links())]
        assert "dram.ch.1.requests" in names
        for resource in calendars:
            assert {f"{resource.name}.{stat}" for stat in
                    ("requests", "busy_fs", "wait_fs", "backfills")} <= names


class TestBitIdentity:
    """ISSUE acceptance: metrics on == metrics off, bit for bit."""

    @pytest.mark.parametrize("model", ["cc", "str"])
    def test_sampled_run_identical_including_sim_events(self, model):
        plain = build_system(model=model).run()
        sampled_system = build_system(model=model)
        sampler = MetricsSampler(sampled_system, ns_to_fs(5_000))
        sampled = sampler.drive()
        # Full record equality — sim.events is NOT exempted here: pull
        # mode adds no events, so even the event count must match.
        assert sampled.to_dict() == plain.to_dict()
        assert sampled_system.hierarchy.observers == []

    def test_recorder_is_visible_among_observers(self):
        # The access-trace recorder is a per-access observer; the obs
        # layer must not mask that.
        system = build_system()
        with TraceRecorder(system) as recorder:
            assert system.hierarchy.observers == [recorder]
        assert system.hierarchy.observers == []


class TestMetricsSampler:
    def test_rows_carry_builtins_and_metric_deltas(self):
        system = build_system()
        sampler = MetricsSampler(system, ns_to_fs(5_000))
        result = sampler.drive()
        rows = sampler.samples
        assert rows, "expected at least one sampling window"
        for row in rows:
            assert {"time_fs", "dram_utilization", "core_activity"} <= set(row)
        # Counter columns are per-interval deltas: they sum to the total.
        assert sum(sampler.series("l1.load_ops")) == system.hierarchy.load_ops
        assert sum(sampler.series("sim.events")) == result.stats["sim.events"]

    def test_gauge_columns_pass_through(self):
        system = build_system()
        sampler = MetricsSampler(system, ns_to_fs(5_000))
        sampler.drive()
        occupancy = sampler.series("l1.0.occupancy")
        # Occupancy is a level, not a rate: it never exceeds the cache
        # and the final sample equals the live value.
        assert occupancy[-1] == system.hierarchy.l1s[0].occupancy()

    def test_to_dict_save_round_trip(self, tmp_path):
        system = build_system()
        sampler = MetricsSampler(system, ns_to_fs(5_000))
        sampler.drive()
        path = tmp_path / "series.json"
        sampler.save(path)
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(sampler.to_dict()))
        assert doc["kinds"]["l1.load_ops"] == COUNTER
        assert doc["kinds"]["l1.0.occupancy"] == GAUGE
        assert doc["units"]["dram.read_bytes"] == "bytes"
        assert len(doc["samples"]) == len(sampler.samples)


class TestKernelEventRecorder:
    def test_spans_cover_every_event(self):
        system = build_system(cores=1)
        with KernelEventRecorder(system.sim) as kernel:
            result = system.run()
        spans = kernel.spans()
        assert spans
        assert sum(count for _, _, count in spans) == \
            result.stats["sim.events"]
        for start_fs, end_fs, _ in spans:
            assert 0 <= start_fs <= end_fs

    def test_coalescing_merges_dense_activity(self):
        system = build_system(cores=1)
        with KernelEventRecorder(system.sim, coalesce_fs=10**15) as wide:
            result = system.run()
        # A coalescing window far wider than the run folds everything
        # into one span.
        assert len(wide.spans()) == 1
        assert wide.spans()[0][2] == result.stats["sim.events"]

    def test_detach_idempotent_and_stops_observing(self):
        system = build_system(cores=1)
        recorder = KernelEventRecorder(system.sim)
        recorder.detach()
        recorder.detach()
        system.run()
        assert recorder.spans() == []

    def test_hook_removed_even_when_run_raises(self):
        system = build_system(cores=1)
        with pytest.raises(RuntimeError, match="boom"):
            with KernelEventRecorder(system.sim):
                raise RuntimeError("boom")
        assert system.sim.observers == []


class TestDmaCommandRecorder:
    def test_records_every_command_on_streaming(self):
        system = build_system(model="str")
        with DmaCommandRecorder(system.hierarchy) as dma:
            system.run()
        total = sum(e.commands for e in system.hierarchy.dma_engines)
        assert len(dma) == total > 0
        for kind, core, issue_fs, start_fs, done_fs, _addr, nbytes in \
                dma.events:
            assert kind in ("get", "put")
            assert 0 <= core < 2
            assert issue_fs <= start_fs <= done_fs
            assert nbytes > 0

    def test_recording_does_not_change_the_run(self):
        plain = build_system(model="str").run()
        observed_system = build_system(model="str")
        with DmaCommandRecorder(observed_system.hierarchy):
            observed = observed_system.run()
        assert observed.to_dict() == plain.to_dict()

    def test_noop_on_coherent_hierarchy(self):
        system = build_system(model="cc")
        with DmaCommandRecorder(system.hierarchy) as dma:
            system.run()
        assert len(dma) == 0



class TestAllObservers:
    """Every recorder and the invariant monitors on one system at once:
    each component keeps one observers list, and they all share it."""

    @pytest.mark.parametrize("model", ["cc", "str"])
    @pytest.mark.parametrize("cores", [1, 4])
    def test_observed_run_identical_and_detaches_clean(self, model, cores):
        plain = build_system(cores=cores, model=model).run()
        system = build_system(cores=cores, model=model)
        hierarchy = system.hierarchy
        monitors = attach_monitors(system)
        with TraceRecorder(system) as first, TraceRecorder(system) as second, \
                DmaCommandRecorder(hierarchy) as dma, \
                KernelEventRecorder(system.sim) as kernel:
            observed = system.run()
        monitors.detach()
        # Full record equality, sim.* included.
        assert observed.to_dict() == plain.to_dict()
        engines = getattr(hierarchy, "dma_engines", [])
        stores = getattr(hierarchy, "local_stores", [])
        lists = [hierarchy.observers, system.sim.observers,
                 *(e.observers for e in engines),
                 *(s.observers for s in stores)]
        assert all(observers == [] for observers in lists)
        # Two recorders on one list both record everything.
        assert first.records == second.records
        assert len(first) == hierarchy.l1_ops
        assert len(dma) == sum(e.commands for e in engines)
        assert sum(n for _, _, n in kernel.spans()) == \
            observed.stats["sim.events"]
        assert monitors.total_checks > 0


class TestChromeExport:
    def full_export(self, model="str"):
        system = build_system(model=model)
        sampler = MetricsSampler(system, ns_to_fs(5_000))
        with TraceRecorder(system) as recorder, \
                DmaCommandRecorder(system.hierarchy) as dma, \
                KernelEventRecorder(system.sim) as kernel:
            sampler.drive()
        return export_chrome_trace(
            trace=recorder.records, dma_events=dma.events,
            kernel_spans=kernel.spans(), samples=sampler.samples)

    def test_export_is_valid(self):
        doc = self.full_export()
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ns"

    def test_export_carries_all_track_groups(self):
        doc = self.full_export()
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2, 3, 4}    # cores, dma, kernel, counters

    def test_dma_flow_arrows_pair_up(self):
        doc = self.full_export()
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        # The arrow leaves a core track and lands on a dma track.
        assert all(e["pid"] == 1 for e in starts)
        assert all(e["pid"] == 2 for e in finishes)

    def test_empty_export_is_valid(self):
        doc = export_chrome_trace()
        assert doc["traceEvents"] == []
        assert validate_chrome_trace(doc) == []

    def test_save_round_trip(self, tmp_path):
        doc = self.full_export()
        path = tmp_path / "trace.json"
        save_chrome_trace(doc, path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 0,
                                "ts": 0}]}
        assert any("unknown phase" in p for p in validate_chrome_trace(doc))

    def test_rejects_complete_event_without_duration(self):
        doc = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                                "ts": 0}]}
        assert any("'dur'" in p for p in validate_chrome_trace(doc))

    def test_rejects_negative_timestamp(self):
        doc = {"traceEvents": [{"ph": "i", "name": "x", "pid": 1, "tid": 0,
                                "ts": -1}]}
        assert any("'ts'" in p for p in validate_chrome_trace(doc))

    def test_rejects_non_numeric_counter(self):
        doc = {"traceEvents": [{"ph": "C", "name": "x", "pid": 1, "tid": 0,
                                "ts": 0, "args": {"v": "high"}}]}
        assert any("numeric" in p for p in validate_chrome_trace(doc))

    def test_rejects_flow_without_id(self):
        doc = {"traceEvents": [{"ph": "s", "name": "x", "pid": 1, "tid": 0,
                                "ts": 0}]}
        assert any("'id'" in p for p in validate_chrome_trace(doc))


class TestGoldenTrace:
    """The exported trace for a fixed tiny run is stable byte for byte."""

    GOLDEN = "data/golden_fir_trace.json"

    def export_fixed_run(self):
        system = build_system("fir", cores=1, model="str")
        with TraceRecorder(system) as recorder, \
                DmaCommandRecorder(system.hierarchy) as dma, \
                KernelEventRecorder(system.sim) as kernel:
            system.run()
        return export_chrome_trace(trace=recorder.records,
                                   dma_events=dma.events,
                                   kernel_spans=kernel.spans())

    def test_matches_golden_file(self, monkeypatch):
        import pathlib

        # The golden file holds the default mode's kernel spans, and
        # REPRO_FASTPATH=0 dispatches more events by design.
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", "1")
        golden = pathlib.Path(__file__).parent / self.GOLDEN
        doc = self.export_fixed_run()
        expected = json.loads(golden.read_text())
        assert doc == expected

    def test_export_is_deterministic(self):
        assert self.export_fixed_run() == self.export_fixed_run()


class TestRenderReport:
    def test_report_prints_components_and_values(self):
        system = build_system()
        registry = MetricsRegistry.from_system(system)
        result = system.run()
        text = render_report(system, result, registry)
        assert "fir/cc" in text
        assert "l1.load_ops" in text
        assert "dram.read_bytes" in text
        assert "% util" in text

    def test_zero_counters_suppressed_gauges_kept(self):
        system = build_system()   # not run: every counter is still zero
        registry = MetricsRegistry.from_system(system)
        result_stub = system.run()
        fresh = build_system()
        text = render_report(
            fresh, result_stub, MetricsRegistry.from_system(fresh))
        assert "l1.load_ops" not in text
        assert "occupancy" in text
