"""Multivariate windowed-series tests: validity bookkeeping and operations."""

from fractions import Fraction

import pytest

from gwp1.epslaurent import EpsLaurent
from gwp1.multiseries import NEG_INF, MultiSeries
from gwp1.zseries import WindowError, ZSeries


def zs(coeffs, top, order):
    return ZSeries({d: EpsLaurent.coerce(v) for d, v in coeffs.items()}, top, order)


def test_const_and_coeff():
    c = MultiSeries.const(2, Fraction(3, 2))
    assert c.coeff((0, 0)) == Fraction(3, 2)
    assert c.coeff((-5, -5)) == EpsLaurent.zero()  # no floors on a constant


def test_from_zseries_window():
    m = MultiSeries.from_zseries(zs({0: 1, -2: 5}, 0, 3), var=1, n=2)
    assert m.coeff((0, -2)) == 5
    with pytest.raises(WindowError):
        m.coeff((0, -4))
    assert m.coeff((-100, 0)) == EpsLaurent.zero()  # other variable has no floor


def test_separable_product_structure():
    a = zs({0: 1, -1: 2}, 0, 2)
    b = zs({0: 1, -1: 3}, 0, 2)
    m = MultiSeries.separable([a, b])
    assert m.coeff((-1, -1)) == 6
    assert m.coeff((0, -1)) == 3
    assert m.hi_tot == 0


def test_mul_total_floor_routing():
    # both factors have finite hi bounds, so each factor's truncation error is
    # caught by the product's total floor instead of a variable floor
    a = MultiSeries.from_zseries(zs({0: 1, -3: 1}, 0, 3), 0, 2)
    b = MultiSeries.from_zseries(zs({1: 1, 0: 1, -2: 1}, 1, 4), 1, 2)
    p = a.mul(b)
    assert p.lo == (NEG_INF, NEG_INF)
    assert p.lo_tot == -2  # a's floor -3, plus a's other hi 0, plus b's hi_tot 1
    assert p.coeff((-3, 1)) == 1
    assert p.coeff((0, -2)) == 1
    # a's first unknown term z_0^-4 times b's z_1 lands below the total floor
    with pytest.raises(WindowError):
        p.coeff((-4, 1))


def test_relabel():
    m = MultiSeries.separable([zs({0: 1, -1: 2}, 0, 3), zs({0: 1, -2: 3}, 0, 3)])
    sw = m.relabel([1, 0])
    assert sw.coeff((-2, -1)) == 6


def test_subs_equal_merges_exponents():
    m = MultiSeries.separable([zs({-1: 1}, 0, 2), zs({-1: 1}, 0, 2)])
    s = m.subs_equal(1, 0)
    assert s.coeff((-2, 0)) == 1


def test_subs_equal_detects_diagonal_vanishing():
    # z_0 - z_1 vanishes on the diagonal
    z0 = MultiSeries.from_zseries(zs({1: 1}, 1, 0), 0, 2)
    z1 = MultiSeries.from_zseries(zs({1: 1}, 1, 0), 1, 2)
    assert (z0 - z1).subs_equal(1, 0).is_zero()


def test_divide_by_difference_exact_quotient():
    # (z_1^2 - z_0^2) / (z_1 - z_0) = z_1 + z_0
    sq1 = MultiSeries.from_zseries(zs({2: 1}, 2, 0), 1, 2)
    sq0 = MultiSeries.from_zseries(zs({2: 1}, 2, 0), 0, 2)
    num = sq1 - sq0
    q = num.divide_by_difference(1, 0)
    assert q.coeff((1, 0)) == 1
    assert q.coeff((0, 1)) == 1
    assert len(q.c) == 2


def test_truncate_total_raises_floor():
    m = MultiSeries.separable([zs({0: 1, -2: 1}, 0, 4), zs({0: 1, -2: 1}, 0, 4)])
    t = m.truncate_total(-2)
    assert t.lo_tot == -2
    with pytest.raises(WindowError):
        t.coeff((-2, -2))
    assert t.coeff((-2, 0)) == 1


def test_add_takes_max_floors():
    a = MultiSeries.from_zseries(zs({0: 1}, 0, 5), 0, 2)
    b = MultiSeries.from_zseries(zs({0: 1}, 0, 3), 0, 2)
    s = a + b
    assert s.lo[0] == -3
    assert s.coeff((0, 0)) == 2
