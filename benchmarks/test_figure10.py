"""Figure 10: stream-programming optimizations on cache-based 179.art."""


def test_figure10(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure10",), rounds=1,
                                iterations=1)
    archive(result)

    # "The impact on performance is dramatic, even at small core counts
    # (7x speedup)": the SoA/loop-merged restructuring removes the sparse
    # strided accesses and the temporary-vector passes.
    orig2 = result.one(variant="ORIG", cores=2)["normalized_time"]
    opt2 = result.one(variant="OPT", cores=2)["normalized_time"]
    assert orig2 / opt2 > 4.0

    # The gain persists at every core count.
    for cores in (2, 4, 8, 16):
        o = result.one(variant="ORIG", cores=cores)["normalized_time"]
        f = result.one(variant="OPT", cores=cores)["normalized_time"]
        assert o / f > 3.0

    # The original is overwhelmingly load-stalled (sparse strides drag a
    # cache line per word and defeat any locality).
    orig = result.one(variant="ORIG", cores=2)
    assert orig["load"] > 0.5 * orig["normalized_time"]
