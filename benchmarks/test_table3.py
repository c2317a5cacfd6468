"""Table 3: memory characteristics of the applications (CC, 16 cores)."""

from repro.harness.experiments import ALL_WORKLOADS


def test_table3(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("table3",), rounds=1,
                                iterations=1)
    archive(result)
    assert result.column("app") == ALL_WORKLOADS
    by_app = {row["app"]: row for row in result.rows}
    # Shape targets from the paper's Table 3: compute-dense applications
    # sit at the low-bandwidth end, data-bound ones at the high end.
    assert by_app["h264"]["offchip_mb_s"] < by_app["mpeg2"]["offchip_mb_s"]
    assert by_app["depth"]["offchip_mb_s"] < by_app["fem"]["offchip_mb_s"]
    assert by_app["fir"]["offchip_mb_s"] > 1000
    assert by_app["bitonic"]["offchip_mb_s"] > 1000
    # Miss-rate ordering: depth and H.264 have the best L1 behaviour,
    # the sorts the worst.
    assert by_app["depth"]["l1_miss_rate_pct"] < 0.1
    assert by_app["h264"]["l1_miss_rate_pct"] < 0.2
    assert by_app["bitonic"]["l1_miss_rate_pct"] > 1.0
    # Compute density: instructions per L1 miss spans orders of magnitude.
    assert (by_app["depth"]["instr_per_l1_miss"]
            > 20 * by_app["bitonic"]["instr_per_l1_miss"])
