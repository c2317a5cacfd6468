"""Figure 9: stream-programming optimizations on cache-based MPEG-2."""


def test_figure9(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure9",), rounds=1,
                                iterations=1)
    archive(result)

    # "The improved producer-consumer locality reduced write-backs from
    # L1 caches by 60%."
    orig = result.one(variant="ORIG", cores=16)
    opt = result.one(variant="OPT", cores=16)
    writeback_cut = 1 - opt["l1_writebacks"] / orig["l1_writebacks"]
    assert writeback_cut > 0.5

    # "Improving the parallel efficiency ... alone is responsible for a
    # 40% performance improvement at 16 cores."
    speedup = 1 - opt["normalized_time"] / orig["normalized_time"]
    assert speedup > 0.3

    # The fused version also moves far less off-chip data (the frame-sized
    # temporaries of the original stream through memory).
    assert opt["read"] + opt["write"] < 0.7 * (orig["read"] + orig["write"])

    # Both variants improve with cores; the optimized one stays ahead at
    # every count.
    for cores in (2, 4, 8, 16):
        o = result.one(variant="ORIG", cores=cores)["normalized_time"]
        f = result.one(variant="OPT", cores=cores)["normalized_time"]
        assert f < o
