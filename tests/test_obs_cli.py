"""The obs CLI surface and its integration with python -m repro."""

import json

import pytest

from repro.__main__ import main
from repro.obs.cli import main as obs_main


class TestObsCommands:
    """The instrumented ``repro run`` flags and ``repro obs validate``."""

    def test_report(self, capsys):
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "fir/cc" in out
        assert "l1.load_ops" in out

    def test_series_to_stdout(self, capsys):
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--profile", "-"]) == 0
        out = capsys.readouterr().out
        assert "window(s)" in out
        doc = json.loads(out.splitlines()[-1])
        assert doc["samples"]
        assert doc["kinds"]["l1.load_ops"] == "counter"

    def test_series_to_file(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--profile", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"interval_fs", "kinds", "units", "samples"}

    def test_export_then_validate(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["run", "fir", "--model", "str", "--cores", "2",
                     "--preset", "tiny", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace" in out
        assert "DMA commands" in out
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert obs_main(["validate", str(path)]) == 0
        assert "valid trace_event JSON" in capsys.readouterr().out

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert obs_main(["validate", str(path)]) == 1
        assert "problem" in capsys.readouterr().err

    def test_validate_rejects_unreadable_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert obs_main(["validate", str(path)]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonesuch"])


class TestMainForwarding:
    def test_obs_subcommand_forwards(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--metrics", "--trace-out", str(path)]) == 0
        assert "l1.load_ops" in capsys.readouterr().out
        assert main(["obs", "validate", str(path)]) == 0
        assert "valid trace_event JSON" in capsys.readouterr().out

    def test_run_profile_path_writes_the_grid_series(self, tmp_path, capsys):
        """``run --profile PATH`` writes the very series a grid sweep
        stores as a sidecar for the same spec."""
        from repro.grid.spec import RunSpec

        path = tmp_path / "series.json"
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--profile", str(path)]) == 0
        _, series = RunSpec("fir", cores=2, preset="tiny") \
            .execute_with_series()
        assert path.read_text() == json.dumps(series, sort_keys=True) + "\n"

    def test_run_metrics_flag_prints_report(self, capsys):
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "fir/cc" in out          # the normal run summary
        assert "l1.load_ops" in out     # plus the metrics report

    def test_run_trace_out_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "run.trace.json"
        assert main(["run", "fir", "--model", "str", "--cores", "2",
                     "--preset", "tiny", "--trace-out", str(path)]) == 0
        assert "chrome trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2, 3, 4}    # cores, dma, kernel, counters

    def test_run_metrics_does_not_change_measurements(self, capsys):
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "fir", "--cores", "2", "--preset", "tiny",
                     "--metrics"]) == 0
        instrumented = capsys.readouterr().out
        # The run summary block (everything before the metrics report)
        # is identical: same times, traffic, and energy.
        assert instrumented.startswith(plain.rstrip("\n").split("\n")[0])
        for line in plain.strip().splitlines():
            assert line in instrumented


class TestScorecardExitCode:
    """A claim outside its acceptance band must fail the process."""

    def _patched_claims(self, monkeypatch, ok: bool):
        import importlib

        # The package re-exports the scorecard *function* under the same
        # name; import the module itself to reach CLAIMS.
        sc = importlib.import_module("repro.harness.scorecard")
        measured = 0.5 if ok else 2.0
        cheap = sc.Claim("synthetic", "§0", "test claim", 1.0,
                         lambda r: measured, 0.0, 1.0)
        monkeypatch.setattr(sc, "CLAIMS", [cheap])

    def test_in_band_exits_zero(self, monkeypatch, capsys):
        self._patched_claims(monkeypatch, ok=True)
        assert main(["scorecard", "--preset", "tiny", "--no-store"]) == 0

    def test_out_of_band_exits_nonzero(self, monkeypatch, capsys):
        self._patched_claims(monkeypatch, ok=False)
        assert main(["scorecard", "--preset", "tiny", "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "out of band" in err
        assert "synthetic" in err

    def test_grid_sweep_scorecard_also_gates(self, monkeypatch, capsys):
        self._patched_claims(monkeypatch, ok=False)
        assert main(["grid", "sweep", "scorecard", "--preset", "tiny",
                     "--jobs", "1", "--no-store"]) == 2
