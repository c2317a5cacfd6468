"""Quantum-extension fast path: bit-identical to slow mode, and faster.

The fast path (:mod:`repro.sim.fastpath`) is quantum extension: it
elides the core's own back-to-back resume events.  Its contract is that *every* measured quantity — timestamps, stall
breakdowns, traffic, energy, stat counters — is bit-identical to the
event-per-quantum slow path, with ``stats["sim.events"]`` as the single
permitted (and intended) difference.  These tests diff full result
records and whole experiment tables across both modes.
"""

import pytest

from repro import run_workload
from repro.harness.experiments import figure2, figure5
from repro.harness.runner import Runner
from repro.sim.fastpath import fastpath_enabled
from tests.records import comparable


def result_in_mode(monkeypatch, fastpath: bool, **kwargs):
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
    return run_workload(preset="tiny", **kwargs)


class TestFlag:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert fastpath_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert not fastpath_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert fastpath_enabled()


class TestBitIdentical:
    @pytest.mark.parametrize("workload,model,cores", [
        ("fir", "cc", 1),
        ("fir", "str", 1),
        ("fir", "cc", 4),
        ("bitonic", "cc", 4),
        ("merge", "str", 4),
    ])
    def test_full_record_matches_slow_mode(self, monkeypatch, workload,
                                           model, cores):
        fast = result_in_mode(monkeypatch, True, name=workload, model=model,
                              cores=cores)
        slow = result_in_mode(monkeypatch, False, name=workload, model=model,
                              cores=cores)
        assert comparable(fast) == comparable(slow)

    def test_prefetch_record_matches_slow_mode(self, monkeypatch):
        # With prefetching on, tagged and still-in-flight lines must
        # resolve the same way in both modes.
        fast = result_in_mode(monkeypatch, True, name="fir", model="cc",
                              cores=4, prefetch=True)
        slow = result_in_mode(monkeypatch, False, name="fir", model="cc",
                              cores=4, prefetch=True)
        assert comparable(fast) == comparable(slow)


class TestEventElision:
    def test_events_drop_at_least_3x_on_fir(self, monkeypatch):
        fast = result_in_mode(monkeypatch, True, name="fir", model="cc",
                              cores=1)
        slow = result_in_mode(monkeypatch, False, name="fir", model="cc",
                              cores=1)
        assert slow.stats["sim.events"] >= 3 * fast.stats["sim.events"]

    def test_slow_mode_counts_more_events(self, monkeypatch):
        fast = result_in_mode(monkeypatch, True, name="bitonic", model="cc",
                              cores=4)
        slow = result_in_mode(monkeypatch, False, name="bitonic", model="cc",
                              cores=4)
        assert slow.stats["sim.events"] > fast.stats["sim.events"]


class TestExperimentTables:
    """Whole experiment tables (restricted rows, tiny preset) across modes."""

    def rows_in_mode(self, monkeypatch, fastpath, build):
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
        return build(Runner(preset="tiny")).rows

    def test_figure2_rows_identical(self, monkeypatch):
        def build(runner):
            return figure2(runner, workloads=["fir"], core_counts=(1, 4))

        fast = self.rows_in_mode(monkeypatch, True, build)
        slow = self.rows_in_mode(monkeypatch, False, build)
        assert fast == slow

    def test_figure5_rows_identical(self, monkeypatch):
        def build(runner):
            return figure5(runner, workloads=["bitonic"], clocks=(0.8,))

        fast = self.rows_in_mode(monkeypatch, True, build)
        slow = self.rows_in_mode(monkeypatch, False, build)
        assert fast == slow
