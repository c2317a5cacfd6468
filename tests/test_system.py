"""End-to-end system behaviour: determinism, accounting, fairness."""

import gc
import weakref

import pytest

from repro import MachineConfig, run_workload
from repro.core.system import CmpSystem, run_program
from repro.workloads import get_workload


def run_tiny(name, model="cc", cores=4, **kwargs):
    return run_workload(name, model=model, cores=cores, preset="tiny",
                        **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("model", ["cc", "str"])
    def test_identical_runs_identical_results(self, model):
        a = run_tiny("fir", model)
        b = run_tiny("fir", model)
        assert a.exec_time_fs == b.exec_time_fs
        assert a.traffic == b.traffic
        assert a.stats == b.stats

    def test_seeded_workloads_are_deterministic(self):
        a = run_tiny("bitonic")
        b = run_tiny("bitonic")
        assert a.exec_time_fs == b.exec_time_fs
        assert a.traffic == b.traffic


class TestAccountingInvariants:
    @pytest.mark.parametrize("model", ["cc", "str"])
    @pytest.mark.parametrize("name", ["fir", "merge", "mpeg2"])
    def test_breakdown_sums_to_execution_time(self, name, model):
        r = run_tiny(name, model)
        assert r.breakdown.total_fs == pytest.approx(r.exec_time_fs, rel=1e-9)

    def test_fractions_sum_to_one(self):
        r = run_tiny("fir")
        assert sum(r.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_traffic_at_least_compulsory(self):
        """FIR must read its whole input from DRAM at least once."""
        r = run_tiny("fir")
        n_bytes = 4 * (1 << 12)
        assert r.traffic.read_bytes >= n_bytes
        assert r.traffic.write_bytes >= n_bytes

    def test_settled_time_covers_execution(self):
        r = run_tiny("fir")
        assert r.settled_fs >= r.exec_time_fs

    def test_bandwidth_bounded_by_channel(self):
        for model in ("cc", "str"):
            r = run_tiny("fir", model, cores=16, clock_ghz=6.4)
            assert r.offchip_mb_per_s <= 6400 * 1.001

    def test_energy_components_positive(self):
        r = run_tiny("fir")
        e = r.energy
        assert e.core > 0 and e.icache > 0 and e.dcache > 0
        assert e.network > 0 and e.l2 > 0 and e.dram > 0
        assert e.local_store == 0            # cache-based model

    def test_streaming_energy_includes_local_store(self):
        r = run_tiny("fir", "str")
        assert r.energy.local_store > 0


class TestScaling:
    def test_more_cores_not_slower(self):
        times = [run_tiny("fir", cores=c).exec_time_fs for c in (1, 4, 16)]
        assert times[0] > times[1] > times[2]

    def test_higher_clock_not_slower(self):
        slow = run_tiny("depth", cores=4, clock_ghz=0.8)
        fast = run_tiny("depth", cores=4, clock_ghz=6.4)
        assert fast.exec_time_fs < slow.exec_time_fs

    def test_compute_bound_app_scales_nearly_linearly(self):
        t1 = run_tiny("depth", cores=1).exec_time_fs
        t4 = run_tiny("depth", cores=4).exec_time_fs
        assert t1 / t4 > 2.5


class TestErrors:
    def test_thread_count_mismatch_rejected(self):
        from repro.workloads.base import Program

        def thread(env):
            yield from ()

        cfg = MachineConfig(num_cores=4)
        with pytest.raises(ValueError, match="threads"):
            CmpSystem(cfg, Program("bad", [thread] * 2))

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nonesuch")

    def test_unknown_preset_rejected(self):
        cfg = MachineConfig(num_cores=1)
        with pytest.raises(KeyError, match="preset"):
            get_workload("fir").build("cc", cfg, preset="huge")

    def test_unknown_override_rejected(self):
        cfg = MachineConfig(num_cores=1)
        with pytest.raises(KeyError, match="parameters"):
            get_workload("fir").build("cc", cfg, preset="tiny",
                                      overrides={"bogus": 1})


class TestRunProgramApi:
    def test_run_program_equivalent_to_system(self):
        cfg = MachineConfig(num_cores=2)
        wl = get_workload("fir")
        r1 = run_program(cfg, wl.build("cc", cfg, preset="tiny"))
        r2 = CmpSystem(cfg, wl.build("cc", cfg, preset="tiny")).run()
        assert r1.exec_time_fs == r2.exec_time_fs


class TestMemory:
    @pytest.mark.parametrize("model", ["cc", "str"])
    def test_finished_system_freed_without_cycle_collector(self, model):
        # Sweeps run many systems in one process; a finished system must
        # not wait for a full collection to release its caches.
        cfg = MachineConfig(num_cores=4).with_model(model)
        program = get_workload("fir").build(cfg.model, cfg, preset="tiny")
        gc.disable()
        try:
            system = CmpSystem(cfg, program)
            system.run()
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            gc.enable()


class TestSelfCheck:
    def test_every_run_is_audited(self):
        """CmpSystem.run() self-validates its result."""
        import repro.core.system as system_mod

        assert system_mod.SELF_CHECK is True

    def test_self_check_can_be_disabled(self, monkeypatch):
        import repro.core.system as system_mod

        monkeypatch.setattr(system_mod, "SELF_CHECK", False)
        r = run_tiny("fir", cores=2)
        assert r.exec_time_fs > 0
