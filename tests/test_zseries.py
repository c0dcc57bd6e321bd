"""Univariate truncated-series unit and property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwp1.epslaurent import EpsLaurent
from gwp1.zseries import WindowError, ZSeries, log1p_inv_z


def mk(coeffs: dict[int, int | Fraction], top: int, order: int) -> ZSeries:
    return ZSeries({d: EpsLaurent.coerce(v) for d, v in coeffs.items()}, top, order)


def test_coeff_window_enforcement():
    s = mk({0: 1, -2: 3}, top=0, order=3)
    assert s.coeff(-2) == 3
    assert s.coeff(-3) == EpsLaurent.zero()
    with pytest.raises(WindowError):
        s.coeff(-4)


def test_mul_window_is_pessimistic():
    a = mk({0: 1}, top=0, order=5)
    b = mk({2: 1}, top=2, order=5)
    p = a * b
    assert p.order == 3  # the z^2 factor can pull deep tail terms up
    assert p.coeff(2) == 1
    deep_a = mk({1: 1}, top=1, order=0)
    deep_b = mk({1: 1}, top=1, order=0)
    with pytest.raises(WindowError):
        deep_a * deep_b


def test_shift_binomial():
    # (z+1)^2 = z^2 + 2z + 1
    s = mk({2: 1}, top=2, order=4)
    t = s.shift(1)
    assert t.coeff(2) == 1 and t.coeff(1) == 2 and t.coeff(0) == 1
    # 1/z at z+1: 1/(z+1) = 1/z - 1/z^2 + ...
    u = mk({-1: 1}, top=-1, order=4).shift(1)
    assert u.coeff(-1) == 1 and u.coeff(-2) == -1 and u.coeff(-3) == 1


def test_shift_round_trip():
    s = mk({0: 2, -1: 3, -3: Fraction(1, 7)}, top=0, order=6)
    r = s.shift(1).shift(-1)
    for d in range(0, -4, -1):
        assert r.coeff(d) == s.coeff(d)


def test_exp_against_log():
    lg = log1p_inv_z(6)
    e = lg.exp()  # equals 1 + 1/z
    assert e.coeff(0) == 1 and e.coeff(-1) == 1
    assert all(e.coeff(-d) == EpsLaurent.zero() for d in range(2, 7))
    with pytest.raises(ValueError):
        mk({0: 1}, top=0, order=3).exp()


def test_deriv():
    s = mk({2: 1, -1: 4}, top=2, order=3)
    d = s.deriv()
    assert d.coeff(1) == 2 and d.coeff(-2) == -4
    assert d.order == 4


def test_truncate_cannot_grow():
    s = mk({0: 1}, top=0, order=3)
    assert s.truncate(2).order == 2
    with pytest.raises(WindowError):
        s.truncate(4)


small_series = st.builds(
    lambda coeffs: mk(coeffs, top=0, order=8),
    st.dictionaries(
        st.integers(min_value=-4, max_value=0),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=4,
    ),
)


@settings(max_examples=60)
@given(small_series, small_series)
def test_product_coefficients_match_convolution(a, b):
    p = a * b
    for d in range(0, -p.order - 1, -1):
        direct = EpsLaurent.zero()
        for d1, v1 in a.c.items():
            for d2, v2 in b.c.items():
                if d1 + d2 == d:
                    direct = direct + v1 * v2
        assert p.coeff(d) == direct


@settings(max_examples=60)
@given(small_series, st.integers(min_value=-2, max_value=2))
def test_shift_round_trip_property(s, cshift):
    r = s.shift(cshift).shift(-cshift)
    for d in range(0, -s.order - 1, -1):
        assert r.coeff(d) == s.coeff(d)
