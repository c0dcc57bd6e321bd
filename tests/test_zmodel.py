"""Determinantal-model expansion: entries, worked example, stabilization."""

from fractions import Fraction
from itertools import permutations

import pytest

from gwp1.epslaurent import EpsLaurent
from gwp1.invariants import free_energy
from gwp1.waves import closed_wave, solve_formal_wave, wave_shift
from gwp1.zmodel import (
    _column_chain,
    _laplace_det,
    characteristic_det_check,
    characteristic_entry,
    stabilization_check,
    zmodel_entry,
    zmodel_expansion,
)


def eps(pairs):
    return EpsLaurent({e: Fraction(v) for e, v in pairs.items()})


def leibniz_reference(columns, min_total):
    """Brute-force det(columns[c](z_j)) over all permutations, totals >= min_total."""
    n = len(columns)
    total = {}
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        terms = {(): EpsLaurent.one() if inversions % 2 == 0 else -EpsLaurent.one()}
        for c in sigma[:-1]:
            terms = {t + (d,): v * w for t, v in terms.items() for d, w in columns[c].c.items()}
        for t, v in terms.items():
            for d, w in columns[sigma[-1]].c.items():
                if sum(t) + d >= min_total:
                    total[t + (d,)] = total.get(t + (d,), EpsLaurent.zero()) + v * w
    return {t: v for t, v in total.items() if v}


def test_entries_are_monic():
    for k in (1, 2, 3, 4):
        e = zmodel_entry(k, 5)
        assert e.top == k - 1
        assert e.coeff(k - 1) == EpsLaurent.one()
        # the column recipe of the per-column solve: f-wave at 5 + k + 1, shifted k - 1
        w = wave_shift(solve_formal_wave(+1, 5 + k + 1), k - 1)
        expected = w.h.truncate(5).scale(EpsLaurent.mono(1 - k))
        assert (e.c, e.top, e.order) == (expected.c, expected.top, expected.order)
        # a longer chain solves with more headroom and gives the same column
        longer = _column_chain(5, 5)[k - 1]
        assert (longer.c, longer.top, longer.order) == (e.c, e.top, e.order)
    with pytest.raises(ValueError):
        zmodel_entry(0, 5)


def test_one_wave_solve_per_expansion():
    # one closed-form f-wave feeds every column; the triangular solve is not used
    _column_chain.cache_clear()
    closed_wave.cache_clear()
    solve_formal_wave.cache_clear()
    zmodel_expansion(5, 2)
    assert closed_wave.cache_info().misses == 1
    assert closed_wave.cache_info().hits == 0
    info = solve_formal_wave.cache_info()
    assert info.hits == info.misses == 0


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_laplace_det_matches_leibniz(nvars):
    # unpruned, on a short window
    columns = _column_chain(nvars, 1)
    det = _laplace_det(columns)
    assert det.c == leibniz_reference(columns, float("-inf"))
    # pruned, with the order and total floor of zmodel_expansion(nvars, 1)
    npairs = nvars * (nvars - 1) // 2
    order = 1 + max(nvars, npairs - nvars + 1)
    columns = _column_chain(nvars, order)
    det = _laplace_det(columns, npairs - 1)
    assert det.c == leibniz_reference(columns, npairs - 1)
    assert det.lo == (-order,) * nvars and det.lo_tot == npairs - 1
    assert det.hi == (nvars - 1,) * nvars and det.hi_tot == npairs


def test_first_entry_is_f_wave():
    e1 = zmodel_entry(1, 6)
    h = solve_formal_wave(+1, 6).h
    for d in range(0, -7, -1):
        assert e1.coeff(d) == h.coeff(d)


def test_worked_example_coefficients():
    q = zmodel_expansion(4, 3).quotient
    assert q.coeff((0, 0, 0, 0)) == EpsLaurent.one()
    assert q.coeff((-1, 0, 0, 0)) == eps({-2: 1, 0: "-1/24"})
    assert q.coeff((-2, 0, 0, 0)) == eps({-4: "1/2", -2: "11/24", 0: "1/1152"})
    assert q.coeff((-3, 0, 0, 0)) == eps(
        {-6: "1/6", -4: "47/48", -2: "265/1152", 0: "1003/414720"}
    )
    assert q.coeff((-2, -1, 0, 0)) == eps(
        {-6: "1/2", -4: "23/16", -2: "169/384", 0: "-1/27648"}
    )


def test_quotient_is_symmetric():
    q = zmodel_expansion(3, 2).quotient
    assert q.coeff((-1, -1, 0)) == q.coeff((-1, 0, -1)) == q.coeff((0, -1, -1))


def test_log_in_times_matches_free_energy():
    lt = zmodel_expansion(3, 2).log_in_times
    fe = free_energy(2)
    assert set(lt.coeffs) == set(fe)
    for ks, v in fe.items():
        assert lt.coeffs[ks] == v


def test_stabilization():
    assert stabilization_check(1, 2, 3)
    assert stabilization_check(2, 3, 4)


def test_nvars_degree_guard():
    with pytest.raises(ValueError):
        zmodel_expansion(3, 3)


def test_characteristic_entry_matches_model_entry_determinant():
    assert characteristic_det_check(1, 4)
    assert characteristic_det_check(2, 4)
    assert characteristic_det_check(3, 5)


def test_characteristic_entry_monic():
    for k in (1, 2, 3):
        g = characteristic_entry(k, 4)
        assert g.coeff(k - 1) == EpsLaurent.one()
