"""Multi-channel memory (Section 3.1's "some number of memory channels")."""

import dataclasses

import pytest

from repro import MachineConfig, run_program
from repro.config import DramConfig
from repro.mem.dram import DramChannel
from repro.units import ns_to_fs
from repro.workloads import get_workload


class TestConfig:
    def test_single_channel_default(self):
        assert DramConfig().channels == 1

    @pytest.mark.parametrize("kwargs", [
        dict(channels=0),
        dict(interleave_bytes=0),
        dict(interleave_bytes=100),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DramConfig(**kwargs)


class TestInterleaving:
    def test_addresses_interleave_across_channels(self):
        ch = DramChannel(DramConfig(channels=2, interleave_bytes=256))
        # Two simultaneous reads to different channels do not queue.
        done_a = ch.access(0, 32, addr=0)
        done_b = ch.access(0, 32, addr=256)
        assert done_a == done_b == ns_to_fs(5 + 70)

    def test_same_channel_still_serializes(self):
        ch = DramChannel(DramConfig(channels=2, interleave_bytes=256))
        ch.access(0, 32, addr=0)
        done = ch.access(0, 32, addr=512)   # 512 // 256 = 2 -> channel 0 again
        assert done == ns_to_fs(10 + 70)

    def test_addressless_requests_use_channel_zero(self):
        ch = DramChannel(DramConfig(channels=4))
        ch.access(0, 32)
        done = ch.access(0, 32)
        assert done == ns_to_fs(10 + 70)

    def test_utilization_averages_channels(self):
        ch = DramChannel(DramConfig(channels=2, interleave_bytes=256))
        ch.access(0, 64, addr=0)            # only channel 0 busy
        assert ch.utilization(ns_to_fs(10)) == pytest.approx(0.5)


class TestSystemLevel:
    def test_two_channels_relieve_a_saturated_app(self):
        """FIR at 3.2 GHz saturates one 1.6 GB/s channel; a second channel
        recovers most of the loss — the scalability lever Section 5.4's
        bandwidth experiment varies via 'higher frequency DRAM or
        multiple memory channels'."""
        wl = get_workload("fir")
        results = {}
        for channels in (1, 2):
            cfg = MachineConfig(num_cores=16).with_clock(3.2)
            cfg = cfg.with_(dram=dataclasses.replace(
                cfg.dram, bandwidth_gbps=1.6, channels=channels))
            results[channels] = run_program(
                cfg, wl.build("cc", cfg, preset="small"))
        assert results[2].exec_time_fs < 0.75 * results[1].exec_time_fs
        assert results[1].traffic == results[2].traffic

    def test_two_channels_match_double_bandwidth_for_streams(self):
        """For a bandwidth-bound streaming pattern, 2 x 6.4 GB/s lands
        close to 1 x 12.8 GB/s."""
        wl = get_workload("fir")
        cfg2 = MachineConfig(num_cores=16).with_clock(3.2)
        cfg2 = cfg2.with_(dram=dataclasses.replace(
            cfg2.dram, bandwidth_gbps=1.6, channels=2))
        dual = run_program(cfg2, wl.build("cc", cfg2, preset="small"))
        cfg_wide = MachineConfig(num_cores=16).with_clock(3.2) \
            .with_bandwidth(3.2)
        wide = run_program(cfg_wide, wl.build("cc", cfg_wide, preset="small"))
        assert abs(dual.exec_time_fs - wide.exec_time_fs) \
            < 0.15 * wide.exec_time_fs
