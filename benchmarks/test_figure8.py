"""Figure 8: "Prepare For Store" — non-allocating stores on the cache model."""


def test_figure8(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure8",), rounds=1,
                                iterations=1)
    archive(result)

    # "For each application, the elimination of superfluous refills brings
    # the memory traffic and energy consumption of the cache-based model
    # into parity with the streaming model."
    for app in ("fir", "merge", "mpeg2"):
        cc = result.one(app=app, config="CC")
        pfs = result.one(app=app, config="CC+PFS")
        streaming = result.one(app=app, config="STR")
        assert pfs["read"] < cc["read"], app
        assert pfs["total"] < cc["total"], app
        assert abs(pfs["total"] - streaming["total"]) < 0.25 * streaming["total"], app

    # "For MPEG-2, the memory traffic due to write misses was reduced 56%
    # compared to the cache-based application without PFS."
    cc = result.one(app="mpeg2", config="CC")
    pfs = result.one(app="mpeg2", config="CC+PFS")
    refill_reduction = (cc["read"] - pfs["read"]) / cc["read"]
    assert refill_reduction > 0.2

    # FIR energy: PFS closes the energy gap too.
    fir_cc = result.one(app="fir", config="CC")
    fir_pfs = result.one(app="fir", config="CC+PFS")
    fir_str = result.one(app="fir", config="STR")
    assert fir_pfs["energy"] < fir_cc["energy"]
    assert fir_pfs["energy"] < 1.05 * fir_str["energy"]
