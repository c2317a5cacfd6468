"""Figure 2: execution time vs core count for all eleven applications."""

from repro.harness.experiments import ALL_WORKLOADS

#: Applications the paper classifies as compute-bound: both models
#: "perform almost identically for all processor counts" (Section 5.1).
COMPUTE_BOUND = ["mpeg2", "h264", "depth", "raytracer", "fem",
                 "jpeg_enc", "jpeg_dec"]


def test_figure2(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure2",), rounds=1,
                                iterations=1)
    archive(result)

    # 11 apps x 4 core counts x 2 models.
    assert len(result.rows) == len(ALL_WORKLOADS) * 4 * 2

    # Everything scales: 16 cores beat 2 cores for every app and model.
    for app in ALL_WORKLOADS:
        for model in ("cc", "str"):
            t2 = result.one(app=app, model=model, cores=2)["normalized_time"]
            t16 = result.one(app=app, model=model, cores=16)["normalized_time"]
            assert t16 < t2, f"{app}/{model} does not scale"

    # Compute-bound applications: the two models within ~15% everywhere.
    for app in COMPUTE_BOUND:
        for cores in (2, 4, 8, 16):
            cc = result.one(app=app, model="cc", cores=cores)["normalized_time"]
            st = result.one(app=app, model="str", cores=cores)["normalized_time"]
            assert abs(cc - st) / max(cc, st) < 0.35, (
                f"{app} at {cores} cores: cc={cc:.3f} str={st:.3f}"
            )

    # Data-bound applications: streaming's macroscopic prefetching wins
    # for FIR / MergeSort / 179.art at 16 cores (Section 5.1)...
    for app in ("fir", "merge", "art"):
        cc = result.one(app=app, model="cc", cores=16)["normalized_time"]
        st = result.one(app=app, model="str", cores=16)["normalized_time"]
        assert st <= cc * 1.02, f"{app}: streaming should win at 16 cores"

    # ...while streaming BitonicSort pays for writing back unmodified data
    # (visible as a large sync component from channel pressure).
    bito = result.one(app="bitonic", model="str", cores=16)
    assert bito["sync"] > 0.25 * bito["normalized_time"]

    # MergeSort and H.264 show growing synchronization stalls with core
    # count under both models (limited parallelism, Section 5.1).
    for app in ("merge", "h264"):
        for model in ("cc", "str"):
            low = result.one(app=app, model=model, cores=2)
            high = result.one(app=app, model=model, cores=16)
            assert (high["sync"] / high["normalized_time"]
                    > low["sync"] / low["normalized_time"])
