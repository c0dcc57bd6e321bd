"""The result records are named tuples with the old dataclass contract: the same
fields in the same order, no attribute assignment, and the same method values."""

from fractions import Fraction

import pytest

from gwp1 import charlier as ch
from gwp1.invariants import n_point_invariant
from gwp1.selftest import CheckResult
from gwp1.waves import solve_formal_wave
from gwp1.zmodel import zmodel_expansion

# the dataclass field order of each record
FIELDS = {
    "InvariantRecord": ("ks", "value"),
    "WaveExpansion": ("sigma", "h"),
    "MiwaPolynomial": ("coeffs", "degree"),
    "SymmetricQuotient": ("nvars", "degree", "monomials"),
    "ZModelExpansion": ("nvars", "degree", "plucker", "log_in_times"),
    "CharlierPolynomial": ("ell", "a", "coefficients"),
    "AsymptoticReport": ("z", "eps", "order", "numeric", "formal", "abs_error", "rel_error"),
    "ScalingLimitReport": ("zeta", "ell", "eps", "target", "rows", "monotone_decreasing"),
    "CheckResult": ("name", "passed", "detail"),
}
ONE_POINT = {"-2": "1", "0": "-1/24"}  # eps^-2 - 1/24, the coefficient of t_0 and of each 1/z_i


@pytest.fixture(scope="module")
def records():
    z41 = zmodel_expansion(4, 1)
    return [
        n_point_invariant((0, 2)),
        solve_formal_wave(-1, 3),
        zmodel_expansion(4, 3).log_in_times,
        z41.quotient,
        z41,
        ch.charlier_poly(3, Fraction(7, 3)),
        ch.asymptotic_match_check(20, 1, 3, 64),
        ch.charlier_scaling_limit_check(0, 0, 1, [20, 40], 64),
        CheckResult("x", True, "d"),
    ]


def test_record_fields_are_ordered_and_frozen(records):
    assert sorted(type(r).__name__ for r in records) == sorted(FIELDS)
    for record in records:
        assert record._fields == FIELDS[type(record).__name__]
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert tuple(record) == tuple(getattr(record, name) for name in record._fields)


def test_record_methods_give_the_dataclass_values(records):
    inv, _, miwa, quot, z41, poly, asym, _, check = records
    assert inv.value.to_json() == {"-2": "1/2", "0": "1/24"}
    assert miwa.coeff((0, 0, 0)).to_json() == {"-2": "1/6"}
    assert miwa.coeff((2, 0)).to_json() == {}
    assert miwa.to_json() == {"0": ONE_POINT, "0,0": {"-2": "1/2"}, "0,0,0": {"-2": "1/6"},
                              "2": {"-2": "1/4", "0": "1/24", "2": "7/5760"}}
    units = [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]
    assert {t: v.to_json() for t, v in quot.c.items()} == {
        (0, 0, 0, 0): {"0": "1"}, **{t: ONE_POINT for t in units}}
    assert quot.coeff((0, -1, 0, 0)).to_json() == ONE_POINT
    assert z41.quotient == quot
    assert poly.eval_exact(Fraction(5, 2)) == Fraction(161, 27)
    assert asym.to_json() == {
        "input": {"z": 20.0, "eps": 1.0, "order": 3},
        "value": "1.0505043454488847", "target": "1.0504869559582369",
        "abs_error": "1.73895e-5", "rel_error": "1.65535e-5",
    }
    assert check.to_json() == {"name": "x", "passed": True, "detail": "d"}
