"""Shared test fixtures: keep the result store hermetic.

Experiment CLI commands persist results under ``$REPRO_STORE`` (or
``.repro-cache/``) by default.  Tests must never read results produced
by a previous checkout or leak records into the developer's working
tree, so every test session gets its own throwaway store directory
unless a test overrides it explicitly.

``pytest --hypothesis-profile=deep`` gives the differential tests of the
DMA granule loops (``tests/test_dma.py``), of the calendar's ``serve``
and ``first_fit`` and the DRAM channel's ``access``
(``tests/test_sim_kernel.py``) and of the flat miss walk
(``tests/test_presence.py``) 2,000 examples each.
"""

import pytest
from hypothesis import settings

settings.register_profile("deep", max_examples=2000)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_store(tmp_path_factory):
    import os

    store_dir = tmp_path_factory.mktemp("repro-store")
    previous = os.environ.get("REPRO_STORE")
    os.environ["REPRO_STORE"] = str(store_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_STORE", None)
    else:
        os.environ["REPRO_STORE"] = previous
