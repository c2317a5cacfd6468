"""Self-tests of the benchmark harness: ``pytest bench/tests``.

They run small child processes (tiny-preset specs, a server answering a
few store hits), so they take seconds, not the minutes of a real run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import suite

DECLARED = suite.load_declared()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = [suite._spec("fir", "cc", 2, "tiny"),
        suite._spec("bitonic", "cc", 2, "tiny"),
        suite._spec("fem", "str", 2, "tiny")]


def _bench(tmp_path: Path, **kwargs) -> run.Bench:
    tmp_path.mkdir(parents=True, exist_ok=True)
    return run.Bench(seed=kwargs.pop("seed", None),
                     hatch=kwargs.pop("hatch", suite.parse_hatches([])),
                     tmp=tmp_path, **kwargs)


@pytest.fixture
def tiny_workloads(monkeypatch):
    """Swap the real workloads for tiny ones (a few seconds in all)."""
    workloads = {"tiny": ("sim", TINY), "serve-warm": ("serve", TINY[:2])}
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "SERVE_ROUNDS", 6)
    return workloads


def test_metric_names_and_units_are_well_formed():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert len(DECLARED["per_layer"]) <= 128
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert [w["name"] for w in DECLARED["workloads"]] == list(suite.WORKLOADS)
    assert {f"{layer}.self_frac" for layer in suite.LAYERS} <= set(names)


def test_every_declared_metric_is_emitted(tmp_path, tiny_workloads):
    bench = _bench(tmp_path)
    plain = run.sim_pass(bench, "tiny", 0)
    traced = run.sim_pass(bench, "tiny", 1, profile=True)
    assert plain["failed"] == traced["failed"] == 0, plain["failures"]
    store = run.fill_store(bench)
    served = run.serve_pass(bench, store, 0)
    served_traced = run.serve_pass(bench, store, 1, profile=True)
    assert served["failed"] == served_traced["failed"] == 0, \
        served["failures"]
    assert served["attempted"] == 12 and served["hits"] == 12

    e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    layers = {m["name"] for m in DECLARED["per_layer"]}
    for passes, profiled in (([plain], traced), ([served], served_traced)):
        summary = run.summarize(passes, DECLARED["end_to_end"])
        assert {k: v["unit"] for k, v in summary.items()} == e2e
        assert all(v["value"] > 0 for v in summary.values()), summary
        values = run.layer_metrics(passes[0], profiled)
        assert set(values) == layers
        fracs = [v for k, v in values.items() if k.endswith(".self_frac")]
        assert sum(fracs) == pytest.approx(1.0, abs=0.01)
        assert values["trace.overhead_x"] > 0
    sim_layers = run.layer_metrics(plain, traced)
    assert sim_layers["mem.hierarchy.walk_calls"] > 0
    assert sim_layers["sim.kernel.events"] > 0
    assert sim_layers["mem.dma.commands"] > 0
    assert run.layer_metrics(served, served_traced)["serve.hits_frac"] == 1


def test_percentile_helpers():
    assert suite.tail_percentile(19) is None
    assert suite.tail_percentile(20) == 50
    assert suite.tail_percentile(99) == 50
    assert suite.tail_percentile(100) == 90
    assert suite.tail_percentile(1000) == 99
    assert suite.tail_percentile(3000) == 99
    assert suite.tail_percentile(10000) == 99.9
    values = list(range(1, 101))
    assert suite.percentile(values, 50) == 50
    assert suite.percentile(values, 90) == 90
    assert suite.percentile(values, 99) == 99
    assert suite.percentile([7.0], 99) == 7.0
    assert suite.median([3, 1, 2, 10]) == 2.5


def test_compare_rule():
    base = [100.0, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [x * 0.85 for x in base]
    assert compare.verdict(base, faster, 0.1, "lower") == "improved"
    assert compare.verdict(base, faster, 0.1, "higher") == "regressed"
    assert compare.verdict(base, faster[:9], 0.1, "lower") == "unchanged"
    assert compare.verdict(base, list(base), 0.1, "lower") == "unchanged"
    noisy = [60.0, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    # Nine wins in ten is enough; eight is not.
    eight = faster[:8] + base[8:]
    assert compare.verdict(base, eight, 0.1, "lower") != "improved"
    nine = faster[:9] + [base[9] * 1.01]
    assert compare.verdict(base, nine, 0.1, "lower") == "improved"


def _report(started: float, wall: float, hatch=None) -> dict:
    metrics = {m["name"]: {"value": wall, "unit": m["unit"]}
               for m in DECLARED["end_to_end"]}
    return {"started": started, "trace": False,
            "hatch": hatch or suite.parse_hatches([]),
            "workloads": {"miss-cc": {"metrics": metrics}}}


def test_compare_reports(tmp_path, capsys):
    paths = {"parent": [], "change": []}
    for i in range(10):
        first, second = ("parent", "change") if i % 2 else ("change", "parent")
        for offset, side in enumerate((first, second)):
            path = tmp_path / f"{side}-{i}.json"
            wall = 10.0 + 0.01 * i if side == "parent" else 13.0
            path.write_text(json.dumps(_report(2 * i + offset, wall)))
            paths[side].append(str(path))
    assert compare.main(paths["parent"] + ["--"] + paths["change"]) == 1
    out = capsys.readouterr().out
    assert "miss-cc     wall_s" in out and "regressed" in out
    assert "alternate" not in out

    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(_report(0, 10.0, suite.parse_hatches(
        ["BLOCKS=0"]))))
    assert compare.main(paths["parent"] + [str(mixed), "--"]
                        + paths["change"]) == 2


def test_digest_ignores_only_sim_keys():
    record = {"workload": "fir", "exec_time_fs": 123, "energy": {"l2": 0.5},
              "stats": {"sim.events": 10, "sim.phase_iters": 3,
                        "l2.reads": 7, "dram.wait_fs": 0.25}}
    base = suite.digest(record)
    for key in ("sim.events", "sim.phase_iters"):
        changed = json.loads(json.dumps(record))
        changed["stats"][key] += 1
        assert suite.digest(changed) == base
    for key in ("l2.reads", "dram.wait_fs"):
        changed = json.loads(json.dumps(record))
        changed["stats"][key] += 1
        assert suite.digest(changed) != base
    changed = dict(record, exec_time_fs=124)
    assert suite.digest(changed) != base


def test_speed_sampler_ticks_on_cpu_time():
    sampler = suite.SpeedSampler().start()
    try:
        stop = time.process_time() + 0.3
        while time.process_time() < stop:
            pass
    finally:
        speed = sampler.stop()
    assert speed["samples"] >= 5
    assert 0.1 < suite.slowdown(speed) < 20
    # Two processes' samples pool, so each weighs by its CPU time.
    fast = {"samples": 30, "total_s": 30 * suite.SPEED_REF_S}
    slow = {"samples": 10, "total_s": 10 * 2 * suite.SPEED_REF_S}
    assert suite.slowdown(fast, slow) == pytest.approx(1.25)
    assert suite.slowdown({"samples": 0, "total_s": 0.0}) == 1.0


def test_hatch_parsing():
    assert suite.parse_hatches(["blocks=0", "REPRO_PHASES=0"]) == {
        "REPRO_FASTPATH": "1", "REPRO_BLOCKS": "0", "REPRO_PHASES": "0",
        "REPRO_STREAMS": "1"}
    for bad in ("BLOCKS", "BLOCKS=2", "TURBO=0"):
        with pytest.raises(ValueError):
            suite.parse_hatches([bad])


def _sim_counters(bench: run.Bench) -> dict:
    _, result = run.run_sim_child(bench, TINY)
    assert result is not None
    return {spec["name"]: (spec["digest"], spec["stats"])
            for spec in result["specs"]}


def test_ambient_hatch_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BLOCKS", raising=False)
    clean = _sim_counters(_bench(tmp_path / "clean"))
    monkeypatch.setenv("REPRO_BLOCKS", "0")
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
    assert _sim_counters(_bench(tmp_path / "ambient")) == clean
    # The pin is what holds them: asked for explicitly, the hatch does
    # reach the child, moves sim.* counters and leaves digests alone.
    off = _sim_counters(_bench(tmp_path / "off", hatch=suite.parse_hatches(
        ["BLOCKS=0"])))
    assert {k: v[0] for k, v in off.items()} == \
        {k: v[0] for k, v in clean.items()}
    assert off != clean


def test_layer_profile_charges_foreign_time_to_callers():
    hier = ("/x/src/repro/mem/hierarchy.py", 543, "load_line")
    kernel = ("/x/src/repro/sim/kernel.py", 100, "run")
    builtin = ("~", 0, "<built-in method builtins.min>")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    stats = {
        kernel: (1, 1, 1.0, 10.0, {}),
        hier: (4, 4, 2.0, 5.0, {kernel: (4, 4, 2.0, 5.0)}),
        helper: (2, 2, 1.0, 3.0, {kernel: (2, 2, 1.0, 3.0)}),
        builtin: (9, 9, 3.0, 3.0, {hier: (6, 6, 2.0, 2.0),
                                   helper: (3, 3, 1.0, 1.0)}),
    }
    out = suite.layer_profile(stats)
    assert out["self_s"]["mem.hierarchy"] == pytest.approx(4.0)
    assert out["self_s"]["sim.kernel"] == pytest.approx(3.0)
    assert sum(out["self_s"].values()) == pytest.approx(7.0)
    assert out["calls"]["mem.hierarchy"] == 4
    assert out["entries"]["mem.hierarchy.walk"] == [4, 5.0]


def test_fails_without_sources(tmp_path):
    root = Path(suite.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "miss-cc", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
