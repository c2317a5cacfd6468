"""Interval sampling (MetricsSampler) and sparkline rendering."""

import pytest

from repro import MachineConfig
from repro.core.system import CmpSystem
from repro.obs.sampler import MetricsSampler, sparkline
from repro.units import ns_to_fs
from repro.workloads import get_workload


class TestSparkline:
    def test_levels(self):
        assert sparkline([0.0, 0.5, 1.0]) == " =@"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_autoscaling(self):
        out = sparkline([1.0, 2.0, 4.0])
        assert out[-1] == "@"

    def test_zero_peak(self):
        assert sparkline([0.0, 0.0]) == "  "

    def test_explicit_peak_clamps(self):
        out = sparkline([2.0], peak=1.0)
        assert out == "@"


def run_sampled(name="fir", cores=4, interval_ns=20_000, model="cc"):
    cfg = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(model, cfg, preset="tiny")
    system = CmpSystem(cfg, program)
    sampler = MetricsSampler(system, interval_fs=ns_to_fs(interval_ns))
    result = sampler.drive()
    return sampler, result


class TestIntervalSampler:
    def test_collects_samples_across_the_run(self):
        sampler, result = run_sampled()
        assert len(sampler.samples) >= 2
        assert sampler.samples[-1]["time_fs"] <= result.exec_time_fs \
            + sampler.interval_fs

    def test_series_bounded(self):
        sampler, _ = run_sampled()
        for key in ("dram_utilization", "core_activity"):
            for v in sampler.series(key):
                assert 0.0 <= v <= 1.0

    def test_busy_run_shows_activity(self):
        sampler, _ = run_sampled("depth", cores=2, interval_ns=100_000)
        assert max(sampler.series("core_activity")) > 0.5

    def test_sampling_does_not_change_results(self):
        from repro.core.system import run_program

        cfg = MachineConfig(num_cores=4)
        wl = get_workload("fir")
        plain = run_program(cfg, wl.build("cc", cfg, preset="tiny"))
        _, sampled = run_sampled()
        assert sampled.exec_time_fs == plain.exec_time_fs
        assert sampled.traffic == plain.traffic

    def test_render_shape(self):
        sampler, _ = run_sampled()
        out = sampler.render(width=40)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("core activity |")
        bar0 = lines[0].split("|")[1]
        assert len(bar0) <= 40

    def test_invalid_interval_rejected(self):
        cfg = MachineConfig(num_cores=1)
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        with pytest.raises(ValueError):
            MetricsSampler(system, interval_fs=0)

    def test_double_drive_rejected(self):
        cfg = MachineConfig(num_cores=1)
        program = get_workload("fir").build("cc", cfg, preset="tiny")
        system = CmpSystem(cfg, program)
        sampler = MetricsSampler(system, interval_fs=ns_to_fs(20_000))
        sampler.drive()
        with pytest.raises(RuntimeError):
            sampler.drive()


def build_system(name="fir", cores=4, model="cc"):
    cfg = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(model, cfg, preset="tiny")
    return CmpSystem(cfg, program)


class TestPullModeSampler:
    """drive() steps the run itself via Simulator.drain_until."""

    def test_drive_runs_to_completion_and_samples(self):
        system = build_system()
        sampler = MetricsSampler(system, interval_fs=ns_to_fs(20_000))
        result = sampler.drive()
        assert result.exec_time_fs > 0
        assert len(sampler.samples) >= 2
        for key in ("dram_utilization", "core_activity"):
            for v in sampler.series(key):
                assert 0.0 <= v <= 1.0

    def test_drive_result_identical_to_unsampled_run(self):
        """The sampler adds no events, so the full result — including
        ``stats['sim.events']`` — matches an unsampled run bit for bit."""
        plain = build_system().run()
        system = build_system()
        sampler = MetricsSampler(system, interval_fs=ns_to_fs(20_000))
        driven = sampler.drive()
        assert driven.to_dict() == plain.to_dict()

    def test_drive_sample_times_are_window_boundaries(self):
        system = build_system()
        interval = ns_to_fs(20_000)
        sampler = MetricsSampler(system, interval_fs=interval)
        sampler.drive()
        for i, sample in enumerate(sampler.samples):
            assert sample["time_fs"] == (i + 1) * interval
