"""Figure 6: the effect of increased off-chip bandwidth on FIR."""


def test_figure6(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure6",), rounds=1,
                                iterations=1)
    archive(result)

    # More bandwidth monotonically helps the cache-based system, which is
    # choking on superfluous refills at 1.6 GB/s.
    cc_times = [
        result.one(model="cc", bandwidth_gbps=bw, prefetch=False)
        for bw in (1.6, 3.2, 6.4, 12.8)
    ]
    for narrow, wide in zip(cc_times, cc_times[1:]):
        assert wide["normalized_time"] <= narrow["normalized_time"] * 1.001

    # "With more bandwidth available, the effect of superfluous refills is
    # significantly reduced, and the cache-based system performs nearly as
    # well as the streaming one."
    cc = result.one(model="cc", bandwidth_gbps=12.8, prefetch=False)
    st = result.one(model="str", bandwidth_gbps=12.8, prefetch=False)
    assert cc["normalized_time"] < 1.6 * st["normalized_time"]

    # "When hardware prefetching is introduced at 12.8 GB/s, load stalls
    # are reduced to 3% of the total execution time."
    pf = result.one(model="cc", bandwidth_gbps=12.8, prefetch=True)
    assert pf["load"] < 0.05 * pf["normalized_time"]
    assert pf["normalized_time"] < cc["normalized_time"]

    # At 1.6 GB/s the CC system is overwhelmingly stalled on loads.
    starved = result.one(model="cc", bandwidth_gbps=1.6, prefetch=False)
    assert starved["load"] > 0.5 * starved["normalized_time"]
