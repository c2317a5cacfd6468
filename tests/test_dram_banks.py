"""The optional banked open-row DRAM model (extension)."""

import dataclasses

import pytest

from repro import MachineConfig, run_workload
from repro.config import DramConfig
from repro.mem.dram import DramChannel
from repro.units import ns_to_fs


def banked(banks=8, row_bytes=2048, hit_ns=25.0, **kw):
    return DramChannel(DramConfig(banks=banks, row_bytes=row_bytes,
                                  row_hit_latency_ns=hit_ns, **kw))


class TestConfig:
    def test_flat_model_is_default(self):
        cfg = DramConfig()
        assert cfg.banks == 1
        assert cfg.row_hit_latency_ns is None

    @pytest.mark.parametrize("kwargs", [
        dict(banks=0),
        dict(row_bytes=1000),
        dict(row_hit_latency_ns=100.0),   # above the random-access latency
        dict(row_hit_latency_ns=-1.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DramConfig(**kwargs)


class TestOpenRowBehaviour:
    def test_first_access_is_a_row_miss(self):
        ch = banked()
        done = ch.access(0, 32, addr=0)
        assert done == ns_to_fs(5 + 70)
        assert ch.row_misses == 1

    def test_same_row_hits(self):
        ch = banked()
        ch.access(0, 32, addr=0)
        t0 = ns_to_fs(1000)
        done = ch.access(t0, 32, addr=1024)    # same 2 KB row
        assert done == t0 + ns_to_fs(5 + 25)
        assert ch.row_hits == 1

    def test_row_conflict_pays_full_latency(self):
        ch = banked(banks=2)
        ch.access(0, 32, addr=0)               # bank 0, row 0
        t0 = ns_to_fs(1000)
        # rows advance bank-interleaved: row 2 also maps to bank 0.
        done = ch.access(t0, 32, addr=2 * 2048)
        assert done == t0 + ns_to_fs(5 + 70)
        assert ch.row_misses == 2

    def test_banks_keep_independent_rows(self):
        ch = banked(banks=2)
        ch.access(0, 32, addr=0)          # bank 0
        ch.access(0, 32, addr=2048)       # bank 1
        ch.access(ns_to_fs(100), 32, addr=64)     # bank 0 again: hit
        ch.access(ns_to_fs(200), 32, addr=2112)   # bank 1 again: hit
        assert ch.row_hits == 2

    def test_addressless_access_pays_full_latency(self):
        ch = banked()
        done = ch.access(0, 32)
        assert done == ns_to_fs(5 + 70)
        assert ch.row_hits == 0 and ch.row_misses == 0

    def test_flat_channel_ignores_addresses(self):
        ch = DramChannel(DramConfig())
        ch.access(0, 32, addr=0)
        ch.access(ns_to_fs(100), 32, addr=64)
        assert ch.row_hits == 0 and ch.row_misses == 0


class TestSystemLevel:
    def _dram(self, banks):
        cfg = MachineConfig(num_cores=4)
        if banks:
            cfg = cfg.with_(dram=dataclasses.replace(
                cfg.dram, banks=8, row_hit_latency_ns=25.0))
        return cfg

    def test_sequential_stream_benefits_from_open_rows(self):
        from repro.core.system import run_program
        from repro.workloads import get_workload

        flat_cfg = self._dram(banks=False)
        banked_cfg = self._dram(banks=True)
        wl = get_workload("jpeg_enc")   # read-dominated sequential bands
        flat = run_program(flat_cfg, wl.build("cc", flat_cfg, preset="tiny"))
        fast = run_program(banked_cfg, wl.build("cc", banked_cfg, preset="tiny"))
        # Sequential band reads mostly hit the open row and run faster.
        assert fast.exec_time_fs < flat.exec_time_fs
        hits = fast.stats["dram.row_hits"]
        misses = fast.stats["dram.row_misses"]
        assert hits > 5 * misses

    def test_interleaved_streams_conflict_in_banks(self):
        """FIR's power-of-two input/output regions alias to the same
        banks (row-interleaved mapping), so its alternating read/RFO
        stream keeps conflicting — a real DRAM phenomenon the open-row
        model captures."""
        from repro.core.system import run_program
        from repro.workloads import get_workload

        banked_cfg = self._dram(banks=True)
        wl = get_workload("fir")
        r = run_program(banked_cfg, wl.build("cc", banked_cfg, preset="tiny"))
        assert r.stats["dram.row_misses"] > r.stats["dram.row_hits"]

    def test_pointer_chasing_hits_less_than_streaming(self):
        from repro.core.system import run_program
        from repro.workloads import get_workload

        banked_cfg = self._dram(banks=True)
        ray = run_program(
            banked_cfg,
            get_workload("raytracer").build("cc", banked_cfg, preset="small"))
        seq = run_program(
            banked_cfg,
            get_workload("jpeg_enc").build("cc", banked_cfg, preset="tiny"))
        ray_rate = ray.stats["dram.row_hits"] / max(
            1, ray.stats["dram.row_hits"] + ray.stats["dram.row_misses"])
        seq_rate = seq.stats["dram.row_hits"] / max(
            1, seq.stats["dram.row_hits"] + seq.stats["dram.row_misses"])
        assert ray_rate < seq_rate
