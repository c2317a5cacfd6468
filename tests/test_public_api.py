"""Public-API surface: everything documented must import and be exported."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.config",
    "repro.units",
    "repro.results",
    "repro.validate",
    "repro.trace",
    "repro.sim",
    "repro.sim.kernel",
    "repro.sim.resources",
    "repro.interconnect",
    "repro.interconnect.fabric",
    "repro.mem",
    "repro.mem.cache",
    "repro.mem.coherence",
    "repro.mem.dma",
    "repro.mem.dram",
    "repro.mem.hierarchy",
    "repro.mem.local_store",
    "repro.mem.prefetcher",
    "repro.mem.store_buffer",
    "repro.core",
    "repro.core.ops",
    "repro.core.processor",
    "repro.core.sync",
    "repro.core.system",
    "repro.energy",
    "repro.energy.cacti",
    "repro.energy.model",
    "repro.workloads",
    "repro.workloads.base",
    "repro.harness",
    "repro.harness.runner",
    "repro.harness.experiments",
    "repro.harness.reports",
    "repro.harness.scorecard",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} has no module docstring"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists {symbol}"


def test_top_level_surface():
    import repro

    expected = {
        "run_workload", "run_program", "CmpSystem", "MachineConfig",
        "MemoryModel", "CoherenceKind", "RunResult", "Breakdown",
        "Traffic", "EnergyBreakdown", "EnergyModel", "EnergyParams",
        "get_workload", "workload_names", "assert_valid", "check_result",
    }
    assert expected <= set(repro.__all__)


def test_public_classes_have_docstrings():
    import repro

    for symbol in repro.__all__:
        obj = getattr(repro, symbol)
        if callable(obj):
            assert obj.__doc__, f"repro.{symbol} lacks a docstring"


def test_version_present():
    import repro

    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_import_repro_leaves_numpy_unloaded():
    """numpy is most of ``import repro``'s time; the workloads that use
    it import it when they build, not when the package loads."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
