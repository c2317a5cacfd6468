"""Interconnect behaviour under load: saturation and hierarchy value."""

import pytest

from repro.config import InterconnectConfig
from repro.interconnect.fabric import ClusterBus, Crossbar
from repro.units import ns_to_fs


class TestBusSaturation:
    def test_back_to_back_transfers_serialize(self):
        bus = ClusterBus(0, InterconnectConfig())
        first = bus.resp.serve(0, bus.resp.service_fs(32))
        second = bus.resp.serve(0, bus.resp.service_fs(32))
        # Occupancy is 1.25 ns per 32 B beat; latency pipelines.
        assert second - first == ns_to_fs(1.25)

    def test_peak_bandwidth(self):
        """A 32 B / 1.25 ns bus sustains 25.6 GB/s per direction."""
        bus = ClusterBus(0, InterconnectConfig())
        n = 1000
        last = 0
        for _ in range(n):
            last = bus.req.serve(0, bus.req.service_fs(32))
        duration_ns = (last - ns_to_fs(2.5)) / 1e6
        gbps = n * 32 / duration_ns
        assert gbps == pytest.approx(25.6, rel=0.01)

    def test_wait_accounting_under_contention(self):
        bus = ClusterBus(0, InterconnectConfig())
        for _ in range(10):
            bus.req.serve(0, bus.req.service_fs(32))
        assert bus.req.wait_fs > 0


class TestCrossbarGeometry:
    def test_port_pairs_match_clusters(self):
        xbar = Crossbar(3, InterconnectConfig())
        assert len(xbar.up) == len(xbar.down) == 3

    def test_directions_independent(self):
        xbar = Crossbar(1, InterconnectConfig())
        up, down = xbar.up[0], xbar.down[0]
        up_done = up.serve(0, up.service_fs(64))
        down_done = down.serve(0, down.service_fs(64))
        assert up_done == down_done     # no cross-direction queueing

    def test_narrower_than_bus(self):
        """The crossbar's 16 B ports need two beats for a 32 B line."""
        cfg = InterconnectConfig()
        xbar = Crossbar(1, cfg)
        bus = ClusterBus(0, cfg)
        up = xbar.up[0]
        line_on_xbar = (up.serve(0, up.service_fs(32))
                        - ns_to_fs(cfg.crossbar_latency_ns))
        line_on_bus = (bus.req.serve(0, bus.req.service_fs(32))
                       - ns_to_fs(cfg.bus_latency_ns))
        assert line_on_xbar == 2 * line_on_bus
