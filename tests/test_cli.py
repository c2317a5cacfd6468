"""The python -m repro command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_prints_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fir" in out and "mpeg2" in out and len(out) == 11


def test_run_prints_measurements(capsys):
    assert main(["run", "fir", "--model", "str", "--cores", "2",
                 "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "fir/str" in out
    assert "breakdown" in out
    assert "traffic" in out
    assert "energy" in out


def test_run_with_prefetch_flag(capsys):
    assert main(["run", "merge", "--cores", "2", "--prefetch",
                 "--preset", "tiny"]) == 0
    assert "merge/cc" in capsys.readouterr().out


def test_experiment_command(capsys):
    assert main(["figure8", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "CC+PFS" in out


def test_every_experiment_registered():
    assert set(EXPERIMENTS) == {
        "scorecard", "table3", "figure2", "figure3", "figure4", "figure5",
        "figure6", "figure7", "figure8", "figure9", "figure10",
    }


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonesuch"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_prefetch_depth_flag(capsys):
    assert main(["run", "merge", "--cores", "2", "--prefetch",
                 "--prefetch-depth", "2", "--preset", "tiny"]) == 0
    assert "merge/cc" in capsys.readouterr().out


def test_run_prefetch_depth_flag_profile_path(capsys):
    assert main(["run", "merge", "--cores", "2", "--prefetch",
                 "--prefetch-depth", "2", "--preset", "tiny",
                 "--profile"]) == 0
    assert "merge/cc" in capsys.readouterr().out


def test_experiment_no_store(capsys):
    assert main(["figure3", "--preset", "tiny", "--no-store"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_experiment_store_warm_restart(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["figure3", "--preset", "tiny", "--store", store]) == 0
    cold = capsys.readouterr().out
    assert main(["figure3", "--preset", "tiny", "--store", store]) == 0
    assert capsys.readouterr().out == cold


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_experiment_parallel_jobs(tmp_path, capsys, jobs):
    import json

    store = str(tmp_path / "store")
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    for progress in (cold, warm):
        assert main(["figure3", "--preset", "tiny", "--jobs", jobs,
                     "--store", store, "--progress-json", str(progress)]) == 0
        assert "Figure 3" in capsys.readouterr().out
    doc = json.loads(cold.read_text())
    assert doc["jobs"] == int(jobs)
    assert doc["runs_launched"] + doc["cache_hits"] == doc["total"]
    # A warm sweep settles every planned run from the store.
    doc = json.loads(warm.read_text())
    assert doc["total"] == doc["cache_hits"] == 12
    assert doc["runs_launched"] == 0


def test_grid_sweep_retry_failed_at_one_job(tmp_path, capsys):
    from repro.grid.scheduler import plan
    from repro.grid.store import FailedRun, ResultStore
    from repro.results import RunResult

    store = ResultStore(tmp_path / "store")
    spec = plan([EXPERIMENTS["figure3"]], preset="tiny")[0]
    store.put(spec, FailedRun(key=spec.content_key(), label=spec.label(),
                              kind="exception", message="seeded failure"))
    assert main(["grid", "sweep", "figure3", "--preset", "tiny",
                 "--jobs", "1", "--retry-failed",
                 "--store", str(store.root)]) == 0
    assert "seeded failure" not in capsys.readouterr().err
    assert isinstance(store.get(spec), RunResult)


@pytest.mark.parametrize(("failed", "code"), [(True, 1), (False, 2)],
                         ids=["failed-run", "out-of-band"])
def test_replay_experiments_exit_codes(monkeypatch, capsys, failed, code):
    from repro.grid.cli import replay_experiments
    from repro.grid.scheduler import RunOutcome
    from repro.grid.spec import RunSpec
    from repro.grid.store import FailedRun
    from repro.harness.runner import ExperimentResult

    spec = RunSpec("fir", cores=2, preset="tiny")
    key = spec.content_key()
    if failed:
        outcome = RunOutcome(spec, key, "failed", "run", failure=FailedRun(
            key=key, label=spec.label(), kind="exception", message="boom"))
    else:
        outcome = RunOutcome(spec, key, "ok", "run", result=spec.execute())

    def scorecard(runner):
        runner.run("fir", cores=2)
        result = ExperimentResult("fake", "Fake scorecard", ["claim", "ok"])
        result.add(claim="fake-claim", measured=1.0, band=(0.0, 0.5),
                   ok=False)
        return result

    monkeypatch.setitem(EXPERIMENTS, "fake", scorecard)
    assert replay_experiments(["fake"], [outcome], preset="tiny") == code
    err = capsys.readouterr().err
    assert ("1 run(s) failed" if failed else "1 claim(s) out of band") in err


def test_grid_subcommand_forwards(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["grid", "sweep", "figure3", "--preset", "tiny",
                 "--jobs", "2", "--store", store]) == 0
    assert "Figure 3" in capsys.readouterr().out
    assert main(["grid", "info", "--store", store]) == 0
    assert "records" in capsys.readouterr().out
    assert main(["grid", "plan", "figure3", "--preset", "tiny"]) == 0
    assert main(["grid", "clear", "--store", store]) == 0
    assert "removed" in capsys.readouterr().out


def test_grid_sweep_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["grid", "sweep", "figure99"])


def test_run_cprofile_prints_hot_functions(capsys):
    assert main(["run", "fir", "--cores", "1", "--preset", "tiny",
                 "--cprofile"]) == 0
    out = capsys.readouterr().out
    assert "cumtime" in out            # the pstats table
    assert "fir/cc" in out             # the run summary still prints


def test_run_cprofile_dumps_stats_file(tmp_path, capsys):
    stats = tmp_path / "run.pstats"
    assert main(["run", "fir", "--cores", "1", "--preset", "tiny",
                 "--cprofile", str(stats)]) == 0
    assert stats.exists()
    import pstats

    assert pstats.Stats(str(stats)).total_calls > 0
    assert "fir/cc" in capsys.readouterr().out


@pytest.mark.parametrize("flag,printed", [("--profile", "window(s) x"),
                                          ("--cprofile", "cumtime")],
                         ids=["profile", "cprofile"])
def test_run_flag_before_workload_keeps_the_workload(flag, printed, capsys):
    # The flag's optional PATH takes the next word: a workload name there
    # is the workload, and the flag runs without a PATH.
    assert main(["run", flag, "fir", "--cores", "2", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "fir/cc" in out and printed in out


def test_run_profile_path_before_workload_still_writes(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["run", "--profile", str(path), "fir", "--cores", "2",
                 "--preset", "tiny"]) == 0
    assert path.exists()
    assert f"series -> {path}" in capsys.readouterr().out


def test_run_without_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--profile", "--cores", "2"])
    assert info.value.code == 2
    assert "required: workload" in capsys.readouterr().err


def test_compare_includes_applicable_models(capsys):
    assert main(["compare", "fir", "--cores", "4", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "cc" in out and "str" in out and "icc" in out


def test_compare_skips_incoherent_for_sharing_apps(capsys):
    assert main(["compare", "h264", "--cores", "4", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "icc" not in out


def test_progress_json_stream_flushes_per_event(tmp_path):
    """``--progress-json -`` must emit events live, not at process exit.

    Runs a real sweep as a subprocess with stdout connected to a pipe
    (so stdio would be block-buffered without the explicit per-line
    flush) and requires the first event line to arrive while the sweep
    is still running.
    """
    import json
    import os
    import pathlib
    import subprocess
    import sys

    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_STORE"] = str(tmp_path / "store")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "grid", "sweep", "figure3",
         "--preset", "tiny", "--jobs", "2", "--progress-json", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    try:
        first = json.loads(proc.stdout.readline())
        running = proc.poll() is None
        rest, _ = proc.communicate(timeout=600)
    finally:
        proc.kill()
    assert first["event"] in ("launch", "cache_hit")
    assert running, "first event arrived only after the sweep finished"
    # The stream interleaves event lines with the rendered tables;
    # every JSON line is an event, and the stream ends with a summary.
    events = []
    for line in rest.splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    assert events[-1]["event"] == "summary"
    assert events[-1]["completed"] == events[-1]["total"] > 0
    assert any(e["event"] == "done" for e in events)
    assert proc.returncode == 0
