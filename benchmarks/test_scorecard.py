"""The master regression: every prose claim of the paper stays in band.

This is the one benchmark to watch: it evaluates the full claim list of
``repro.harness.scorecard`` (each number the paper states in Sections
2-6) against fresh simulations and fails if any drifts out of its
acceptance band.
"""


def test_all_paper_claims_hold(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("scorecard",), rounds=1,
                                iterations=1)
    archive(result)
    failing = [row for row in result.rows if not row["ok"]]
    assert not failing, "claims out of band: " + ", ".join(
        f"{r['claim']} (paper {r['paper']}, measured {r['measured']:.3f}, "
        f"band {r['band']})" for r in failing
    )
