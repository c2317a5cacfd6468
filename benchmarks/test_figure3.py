"""Figure 3: off-chip traffic for the cache-based and streaming systems."""


def test_figure3(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure3",), rounds=1,
                                iterations=1)
    archive(result)

    # FIR: streaming eliminates the output-refill third of the traffic.
    fir_cc = result.one(app="fir", model="cc")
    fir_str = result.one(app="fir", model="str")
    assert fir_str["total"] < 0.75 * fir_cc["total"]
    assert fir_str["read"] < fir_cc["read"]          # no superfluous refills
    assert abs(fir_str["write"] - fir_cc["write"]) < 0.05

    # MPEG-2: streaming moves fewer bytes (refill elimination).
    mpeg_cc = result.one(app="mpeg2", model="cc")
    mpeg_str = result.one(app="mpeg2", model="str")
    assert mpeg_str["total"] < mpeg_cc["total"]

    # BitonicSort: streaming writes back unmodified data and moves MORE.
    bito_cc = result.one(app="bitonic", model="cc")
    bito_str = result.one(app="bitonic", model="str")
    assert bito_str["write"] > 2 * bito_cc["write"]
    assert bito_str["total"] > 1.2 * bito_cc["total"]

    # FEM: little bandwidth difference between the two models.
    fem_cc = result.one(app="fem", model="cc")
    fem_str = result.one(app="fem", model="str")
    assert abs(fem_cc["total"] - fem_str["total"]) / fem_cc["total"] < 0.3
