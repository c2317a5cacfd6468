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


def test_experiment_parallel_jobs(tmp_path, capsys):
    store = str(tmp_path / "store")
    progress = tmp_path / "progress.json"
    assert main(["figure3", "--preset", "tiny", "--jobs", "2",
                 "--store", store, "--progress-json", str(progress)]) == 0
    assert "Figure 3" in capsys.readouterr().out
    import json

    doc = json.loads(progress.read_text())
    assert doc["jobs"] == 2
    assert doc["runs_launched"] + doc["cache_hits"] == doc["total"]


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
