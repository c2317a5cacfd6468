"""RunResult, Breakdown, Traffic, and EnergyBreakdown."""

import pytest

from repro.results import Breakdown, EnergyBreakdown, RunResult, Traffic


def make_result(**overrides):
    fields = dict(
        workload="fir",
        model="cc",
        num_cores=4,
        clock_ghz=0.8,
        exec_time_fs=1_000_000_000,
        settled_fs=1_100_000_000,
        breakdown=Breakdown(600e6, 100e6, 250e6, 50e6),
        traffic=Traffic(read_bytes=4096, write_bytes=2048),
        energy=EnergyBreakdown(1e-3, 1e-4, 2e-4, 0.0, 5e-5, 3e-4, 8e-4),
        instructions=100_000,
        word_accesses=10_000,
        local_accesses=0,
        l1_misses=500,
        l1_load_misses=300,
        l1_store_misses=200,
        l2_accesses=500,
        l2_misses=400,
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestBreakdown:
    def test_total_and_fractions(self):
        b = Breakdown(60.0, 10.0, 25.0, 5.0)
        assert b.total_fs == 100.0
        f = b.fractions()
        assert f == {"useful": 0.6, "sync": 0.1, "load": 0.25, "store": 0.05}

    def test_zero_total(self):
        assert Breakdown(0, 0, 0, 0).fractions()["useful"] == 0.0

    def test_scaled(self):
        b = Breakdown(10, 20, 30, 40).scaled(0.5)
        assert (b.useful_fs, b.sync_fs, b.load_fs, b.store_fs) == (5, 10, 15, 20)


class TestRunResultMetrics:
    def test_miss_rates(self):
        r = make_result()
        assert r.l1_miss_rate == pytest.approx(0.05)
        assert r.l2_miss_rate == pytest.approx(0.8)

    def test_instructions_per_miss(self):
        assert make_result().instructions_per_l1_miss == pytest.approx(200.0)

    def test_zero_misses_is_infinite(self):
        r = make_result(l1_misses=0, l2_misses=0)
        assert r.instructions_per_l1_miss == float("inf")
        assert r.cycles_per_l2_miss == float("inf")

    def test_cycles_per_l2_miss(self):
        r = make_result()
        # 1 us at 800 MHz = 800 cycles over 400 misses = 2.
        assert r.cycles_per_l2_miss == pytest.approx(2.0)

    def test_bandwidth_uses_settled_duration(self):
        r = make_result()
        # 6144 bytes over 1.1 us.
        assert r.offchip_mb_per_s == pytest.approx(6144 / 1.1e-6 / 1e6)

    def test_traffic_total(self):
        assert make_result().traffic.total_bytes == 6144

    def test_energy_total_and_dict(self):
        e = make_result().energy
        assert e.total == pytest.approx(sum(e.as_dict().values()))

    def test_summary_mentions_key_facts(self):
        text = make_result().summary()
        assert "fir" in text and "cc" in text and "cores=4" in text
