"""Figure 4: energy consumption breakdown at 16 CPUs."""


def test_figure4(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure4",), rounds=1,
                                iterations=1)
    archive(result)

    # "The energy differential in nearly every case comes from the DRAM
    # system" (Section 5.2): the DRAM delta dominates the first-level
    # storage delta for the strongly traffic-differentiated apps.
    # (MPEG-2 is compute-bound at 800 MHz: its small differential splits
    # between DRAM and the first level, so it is asserted on total only.)
    for app in ("fir", "bitonic"):
        cc = result.one(app=app, model="cc")
        st = result.one(app=app, model="str")
        dram_gap = abs(cc["dram"] - st["dram"])
        first_level_gap = abs(
            cc["dcache"] - (st["dcache"] + st["local_store"])
        )
        assert dram_gap > 0.5 * first_level_gap, app

    # FIR and MPEG-2: streaming consumes less energy than cache-coherence.
    for app in ("fir", "mpeg2"):
        cc = result.one(app=app, model="cc")["total"]
        st = result.one(app=app, model="str")["total"]
        assert st < cc, app

    # BitonicSort is the counter-example: its extra write-backs cost
    # streaming more energy.
    assert (result.one(app="bitonic", model="str")["total"]
            > result.one(app="bitonic", model="cc")["total"])

    # FEM: "the difference in energy consumption is insignificant".
    fem_cc = result.one(app="fem", model="cc")["total"]
    fem_str = result.one(app="fem", model="str")["total"]
    assert abs(fem_cc - fem_str) / fem_cc < 0.15

    # The per-access tag-lookup savings of the local store are small:
    # the streaming first-level energy is not dramatically below the
    # cache's (Section 5.2's "never materialized" expectation).
    fir_cc = result.one(app="fir", model="cc")
    fir_str = result.one(app="fir", model="str")
    str_first = fir_str["dcache"] + fir_str["local_store"]
    assert str_first > 0.1 * fir_cc["dcache"]
