"""Run the doctests embedded in the library's docstrings."""

import doctest

import pytest

import repro.harness.reports
import repro.obs.sampler
import repro.units

MODULES = [repro.units, repro.harness.reports, repro.obs.sampler]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    results = doctest.testmod(module, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.failed == 0
    assert results.attempted > 0
