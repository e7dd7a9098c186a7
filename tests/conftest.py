"""Shared fixtures."""

import pytest

from singcat import homs


@pytest.fixture(autouse=True)
def fresh_cocycles():
    """Each test starts with no remembered cocycle modules, nor the leads
    kept beside them, so no test reads an entry another test made, and a
    comparison with a fresh recomputation stays a fresh recomputation."""
    homs._COCYCLES.clear()
    yield
