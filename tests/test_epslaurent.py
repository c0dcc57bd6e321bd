"""Coefficient-ring unit and property tests."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from gwp1.epslaurent import EPS, EPS_INV, ONE, ZERO, EpsLaurent

scalars = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), scalars, max_size=5
).map(EpsLaurent)
wide_scalars = st.fractions(
    min_value=-10**9, max_value=10**9, max_denominator=10**7
)
wide_laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), wide_scalars, max_size=6
).map(EpsLaurent)
any_laurents = st.one_of(laurents, wide_laurents)


def test_constructors_drop_zeros():
    x = EpsLaurent({2: Fraction(0), 0: 3})
    assert x.c == {0: Fraction(3)}
    assert not EpsLaurent.zero()
    assert EpsLaurent.one() == 1
    assert EpsLaurent.mono(-2)[-2] == 1


def test_constants():
    assert ZERO == EpsLaurent.zero()
    assert ONE == EpsLaurent.one()
    assert EPS * EPS_INV == ONE


def test_arithmetic_known_values():
    a = EpsLaurent({-2: 1, 0: Fraction(-1, 24)})
    b = EpsLaurent({2: 1})
    assert (a * b).c == {0: Fraction(1), 2: Fraction(-1, 24)}
    assert (a + (-a)) == ZERO
    assert a - a == ZERO
    assert (a * 2)[0] == Fraction(-1, 12)
    assert 3 * ONE == EpsLaurent.const(3)
    # the eps^1 terms cancel and must not be stored
    assert ((ONE + EPS) * (ONE - EPS)).c == {0: Fraction(1), 2: Fraction(-1)}


def test_div_exact_monomial():
    a = EpsLaurent({-2: 1, 0: Fraction(-1, 24)})
    m = EpsLaurent.mono(-2, Fraction(1, 2))
    assert a.div_exact(m) * m == a


@given(laurents, laurents)
def test_div_exact_rejects_non_monomial(a, b):
    # only monomial divisors are accepted, even where the quotient is Laurent
    for num, den in ((a * b, b), (a * a, a), (EPS + ONE, EPS + EPS * EPS)):
        if len(den.num) > 1:
            with pytest.raises(ValueError, match="monomial"):
                num.div_exact(den)
    with pytest.raises(ZeroDivisionError):
        a.div_exact(ZERO)


def test_eval():
    x = EpsLaurent({1: 1, 0: 1})
    assert x.eval(Fraction(1, 2)) == Fraction(3, 2)
    y = EpsLaurent({-1: 1})
    assert y.eval(Fraction(1, 4)) == 4
    with pytest.raises(ZeroDivisionError):
        y.eval(Fraction(0))


def test_json_round_trip():
    a = EpsLaurent({-2: 1, 3: Fraction(-7, 5760)})
    assert EpsLaurent({int(e): Fraction(v) for e, v in a.to_json().items()}) == a
    assert a.to_json() == {"-2": "1", "3": "-7/5760"}


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(laurents, st.integers(min_value=-8, max_value=8), scalars)
def test_exact_division_round_trip(a, e, q):
    if not q:
        return
    m = EpsLaurent.mono(e, q)
    assert (a * m).div_exact(m) == a


# -- differential tests against a {exp: Fraction} reference ------------------


def ref(x: EpsLaurent) -> dict[int, Fraction]:
    return {e: x[e] for e in x.exponents()}


def ref_clean(d):
    return {e: v for e, v in d.items() if v}


def ref_add(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return ref_clean(out)


def assert_canonical(x: EpsLaurent) -> None:
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int and v != 0 for v in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1


def assert_matches(x: EpsLaurent, expected: dict[int, Fraction]) -> None:
    assert_canonical(x)
    assert ref(x) == expected
    y = EpsLaurent(expected)
    assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("q", [0, 1, -3, 10**30, Fraction(-3, 7), Fraction(5, 2)])
def test_a_constant_hashes_as_the_scalar_it_equals(q):
    c = EpsLaurent.const(q)
    assert c == q and hash(c) == hash(q)
    assert c in {q} and {q: "x"}.get(c) == "x"


@given(any_laurents, any_laurents)
def test_ring_matches_fraction_reference(a, b):
    ra, rb = ref(a), ref(b)
    assert_canonical(a)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(-a, {e: -v for e, v in ra.items()})
    assert_matches(a - b, ref_add(ra, {e: -v for e, v in rb.items()}))
    assert_matches(a * b, ref_mul(ra, rb))
    assert hash(a * b) == hash(b * a) and hash(a + b) == hash(b + a)


@given(
    st.dictionaries(st.integers(min_value=-6, max_value=6),
                    st.integers(min_value=-10**12, max_value=10**12), max_size=6),
    st.integers(min_value=1, max_value=10**12),
)
def test_from_ints_matches_reference(num, den):
    assert_matches(EpsLaurent.from_ints(num, den),
                   ref_clean({e: Fraction(v, den) for e, v in num.items()}))


def test_from_ints_rejects_nonpositive_denominator():
    for den in (0, -3):
        with pytest.raises(ValueError):
            EpsLaurent.from_ints({0: 1}, den)


@given(any_laurents, st.integers(min_value=-10**6, max_value=10**6), wide_scalars)
def test_scalar_products_match_reference(a, k, q):
    ra = ref(a)
    for s in (k, q):
        expected = ref_clean({e: v * s for e, v in ra.items()})
        assert_matches(a * s, expected)
        assert_matches(s * a, expected)
        assert_matches(a + s, ref_add(ra, ref_clean({0: Fraction(s)})))


@given(any_laurents, st.integers(min_value=-8, max_value=8), wide_scalars)
def test_div_exact_matches_reference(a, e, q):
    ra = ref(a)
    if q:
        m = EpsLaurent.mono(e, q)
        assert_matches(a.div_exact(m), {d - e: v / q for d, v in ra.items()})


def test_products_and_sums_create_no_fraction(monkeypatch):
    a = EpsLaurent({-2: Fraction(1, 3), 0: Fraction(-1, 24), 1: 5, 3: Fraction(7, 5760)})
    b = EpsLaurent({-1: Fraction(2, 5), 0: 1, 2: Fraction(-3, 414720)})
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    product = a * b
    total = product + a + b - a * 3
    negated = -total
    monkeypatch.undo()
    assert created == []
    assert negated == -(a * b + b - a * 2)


@pytest.mark.parametrize("bad", [1.5, "x", None, [1]])
def test_products_with_a_foreign_operand_raise_type_error(bad):
    one = EpsLaurent.one()
    with pytest.raises(TypeError):
        one * bad
    with pytest.raises(TypeError):
        bad * one
    assert one.__mul__(bad) is NotImplemented and one.__eq__(bad) is NotImplemented
    assert not one == bad and one != bad
