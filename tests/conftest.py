"""Fixtures shared by the test modules."""

import pytest

from gwp1 import waves
from gwp1.invariants import n_point_invariant


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty row table, with no cached invariant read from another one."""
    rows = waves._Rows()
    monkeypatch.setattr(waves, "_ROWS", rows)
    n_point_invariant.cache_clear()
    yield rows
    n_point_invariant.cache_clear()
