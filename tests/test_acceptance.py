"""Acceptance gate: one test per release criterion, at the stated tolerances.

Criteria 1-9 and 11-14 delegate to the shared verification registry (whose
frozen constants were produced by the independent oracle routes); criterion 10
is the property-based structural block, run here with hypothesis.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from gwp1.epslaurent import EpsLaurent
from gwp1.invariants import n_point_invariant
from gwp1 import selftest


def timed(fn, budget_s):
    t0 = time.monotonic()
    result = fn()
    assert time.monotonic() - t0 < budget_s
    return result


def ok(res: selftest.CheckResult):
    assert res.passed, f"{res.name}: {res.detail}"


def test_criterion_01_wave_coefficients():
    ok(timed(selftest.check_wave_coefficients, 1))


def test_criterion_02_oracle_equivalence():
    ok(timed(selftest.check_oracle_equivalence, 10))


def test_criterion_03_one_point_invariants():
    ok(timed(selftest.check_one_point, 5))


def test_criterion_04_multi_point_invariants():
    ok(timed(selftest.check_multi_point, 60))


def test_criterion_05_worked_example_n4():
    ok(timed(selftest.check_zmodel_example, 60))


def test_criterion_06_cross_pipeline_degree_3():
    ok(timed(selftest.check_cross_pipeline, 120))


def test_criterion_07_stabilization():
    ok(selftest.check_stabilization())


def test_criterion_08_projector_suite():
    ok(selftest.check_projector())


def test_criterion_09_characteristic_matrix():
    ok(selftest.check_characteristic_det())


small_ks = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=3
).filter(lambda ks: sum(ks) <= 6)


@settings(max_examples=20, deadline=None)
@given(small_ks)
def test_criterion_10_structural_properties(ks):
    ks = tuple(ks)
    rec = n_point_invariant(ks)
    total = sum(ks)
    # permutation symmetry
    assert n_point_invariant(tuple(reversed(ks))).value == rec.value
    if total % 2 == 1:
        assert rec.value == EpsLaurent.zero()
    for e in rec.value.exponents():
        assert e % 2 == 0
        # genus g = (e+2)/2 >= 0 and degree d = total/2 + 1 - g >= 0
        assert -2 <= e <= total


def test_criterion_11_charlier_orthogonality():
    ok(selftest.check_charlier_orthogonality())


def test_criterion_12_determinant_vs_brute_force():
    ok(selftest.check_charlier_determinant())


def test_criterion_13_scaling_limit():
    ok(selftest.check_scaling_limit())


def test_criterion_14_numeric_vs_formal_asymptotics():
    ok(selftest.check_asymptotics())
