"""Shared fixtures for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one
ablation or extension sweep), times the regeneration with
pytest-benchmark, prints the paper-style rows, and archives figures
under ``benchmarks/output/`` so EXPERIMENTS.md can point at concrete
numbers.

The workload scale is selected with the ``REPRO_PRESET`` environment
variable (``default`` | ``small`` | ``tiny``); the shipped default is the
full benchmark scale used by EXPERIMENTS.md.

Every simulation takes the one sweep path of ``python -m repro grid
sweep``: plan, settle store hits, run the misses on a
:class:`~repro.grid.scheduler.GridScheduler` of one worker per CPU, and
replay.  Figures go through :func:`repro.grid.cli.run_experiments`
(the ``regenerate`` fixture); ablation and extension sweeps hand their
:class:`~repro.grid.spec.RunSpec` list to one
:meth:`~repro.grid.scheduler.GridScheduler.run_batch` (the ``settle``
fixture).  The result store is ``REPRO_STORE`` when set, so runs already
recorded there (for example by ``python -m repro all --store ...``) are
replayed instead of re-simulated and new runs are recorded for the next
session; otherwise it is a temporary store for the session, so each run
is still simulated once and shared across figures.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.grid import GridScheduler, ResultStore, RunFailedError
from repro.grid.cli import run_experiments

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Worker processes for every benchmark sweep.
JOBS = os.cpu_count() or 1


@pytest.fixture(scope="session")
def preset() -> str:
    return os.environ.get("REPRO_PRESET", "default")


@pytest.fixture(scope="session")
def store(tmp_path_factory) -> ResultStore:
    """``REPRO_STORE`` if set, else a store private to this session."""
    root = os.environ.get("REPRO_STORE")
    return ResultStore(root or tmp_path_factory.mktemp("store"))


@pytest.fixture(scope="session")
def regenerate(preset: str, store: ResultStore):
    """Regenerate one named experiment; returns its ExperimentResult."""

    def _regenerate(name: str):
        rendered = {}
        code = run_experiments([name], preset=preset, jobs=JOBS, store=store,
                               render=rendered.__setitem__)
        if name not in rendered:
            pytest.fail(f"{name} is incomplete (exit {code}): a run it "
                        f"needs failed; see stderr")
        return rendered[name]

    return _regenerate


@pytest.fixture(scope="session")
def settle(store: ResultStore):
    """Settle a list of RunSpecs; returns their RunResults in order."""

    def _settle(specs):
        outcomes = GridScheduler(jobs=JOBS, store=store).run_batch(specs)
        results = []
        for spec in specs:
            outcome = outcomes[spec.content_key()]
            if outcome.failure is not None:
                pytest.fail(str(RunFailedError(outcome.failure)))
            results.append(outcome.result)
        return results

    return _settle


@pytest.fixture()
def archive():
    """Write an experiment's text rendering to benchmarks/output/."""

    def _archive(result) -> None:
        result.save(OUTPUT_DIR)
        print()
        print(result.to_text())

    return _archive
