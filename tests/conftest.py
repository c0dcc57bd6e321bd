"""Fixtures shared by the test modules."""

import pytest

from gwp1 import waves
from gwp1.epslaurent import EpsLaurent
from gwp1.invariants import n_point_invariant


def affine_reader():
    """a(x, y), one coordinate per read, through `waves.affine_diagonals`."""
    def read(x, y):
        diagonals, den = waves.affine_diagonals(x + y, x + y)
        return EpsLaurent.from_ints(diagonals.get(x + y, {}).get(x, {}), den)
    return read


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty row table, with no cached invariant read from another one."""
    rows = waves._Rows()
    monkeypatch.setattr(waves, "_ROWS", rows)
    n_point_invariant.cache_clear()
    yield rows
    n_point_invariant.cache_clear()
