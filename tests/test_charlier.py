"""Numeric pipeline: Bessel series, Charlier polynomials, limits, ensembles."""

import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import (
    from_int, from_man_exp, fzero, gammazeta, mpf_add, mpf_div, mpf_mul, mpf_sum, round_nearest,
)

from gwp1 import charlier, special
from gwp1.charlier import (
    _atoms,
    asymptotic_match_check,
    brute_force_expectation,
    char_poly_expectation,
    charlier_orthogonality_check,
    charlier_orthogonality_sum,
    charlier_poly,
    charlier_scaling_limit_check,
    charlier_value,
    difference_equation_residual,
    numeric_wronskian,
)
from gwp1.special import (
    _GUARD_BITS,
    _HELD_SIZE,
    _quotient,
    _rgamma,
    _rounded,
    _sum,
    bessel_j,
    gamma_real,
    numeric_f,
    numeric_f_g,
    numeric_g,
)


# each public numeric entry point, and the private Gamma helper the tests call
# directly, with arguments small enough for a fresh process, by the module that holds it
FIRST_CALLS = [
    (special, "_rgamma", (7, 3, 64)),
    (special, "gamma_real", (Fraction(7, 3), 64)),
    (special, "bessel_j", (Fraction(1, 3), 2, 64)),
    (special, "numeric_f", (Fraction(13, 4), 1, 64)),
    (special, "numeric_g", (Fraction(13, 4), 1, 64)),
    (special, "numeric_f_g", (Fraction(13, 4), 1, 64)),
    (charlier, "difference_equation_residual", (Fraction(13, 4), 1, 64, "g")),
    (charlier, "numeric_wronskian", (Fraction(29, 4), 1, 64)),
    (charlier, "asymptotic_match_check", (20, 1, 3, 64)),
    (charlier, "charlier_orthogonality_sum", (1, 2, 1, Fraction(1, 10**20), 64)),
    (charlier, "charlier_orthogonality_check", (2, 2, 1, Fraction(1, 10**20), 64)),
    (charlier, "charlier_scaling_limit_check", (0, 0, 1, [20, 40], 64)),
    (charlier, "char_poly_expectation", (2, 1, [3, "4.5"], 64)),
    (charlier, "brute_force_expectation", (2, 1, [3, "4.5"], 60, 64)),
]
SRC = str(Path(charlier.__file__).parents[1])


@pytest.mark.parametrize("module, name, args", FIRST_CALLS, ids=[name for _, name, _ in FIRST_CALLS])
def test_entry_point_works_as_the_first_numeric_call(monkeypatch, module, name, args):
    # mpmath loads on the first numeric call, so each entry point must bind it before
    # it reads an mpmath name; the fresh process returns the value this one computes
    code = ("import pickle, sys; from fractions import Fraction; import gwp1.charlier, gwp1.special; "
            "assert 'mpmath' not in sys.modules; "
            f"sys.stdout.buffer.write(pickle.dumps({module.__name__}.{name}(*{args!r})))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    monkeypatch.setattr(special, "_held", {})  # hold no value the fresh process lacks
    assert pickle.loads(proc.stdout) == getattr(module, name)(*args)


def test_each_numeric_module_binds_mpmath_and_special_stands_alone():
    # special.py runs as a module of its own, outside the package, so it imports no other
    # gwp1 module; importing the package holds no numeric value, so an exact query pays
    # nothing for the table; each numeric module's stand-in binds mpmath's own mp
    code = "\n".join([
        "import importlib.util, sys",
        "from fractions import Fraction",
        f"spec = importlib.util.spec_from_file_location('alone', {SRC!r} + '/gwp1/special.py')",
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('gwp1', 'mpmath')))",
        "from gwp1 import charlier, special",
        "print('mpmath' in sys.modules, special._held)",
        "charlier.charlier_orthogonality_check(2, 2, 1, Fraction(1, 10**20), 64)",
        "special.bessel_j(Fraction(1, 3), 2, 64)",
        "import mpmath",
        "print(charlier.mp is mpmath.mp, special.mp is mpmath.mp)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False {}", "True True"]


def test_gamma_classical_values():
    with mp.workprec(120):
        assert abs(gamma_real(1, 96) - 1) < mp.mpf(2) ** -90
        assert abs(gamma_real(Fraction(1, 2), 96) - mp.sqrt(mp.pi)) < mp.mpf(2) ** -88
        target = mp.mpf(3) / 4 * mp.sqrt(mp.pi)
        assert abs(gamma_real(Fraction(5, 2), 96) - target) < mp.mpf(2) ** -88
    with pytest.raises(ValueError):
        gamma_real(-3, 96)


def test_gamma_far_from_the_origin_returns_at_once():
    # no exact ratio of about |x| factors: Stirling's series takes over, and
    # its sin(pi x) gives a far pole's zero
    start = time.perf_counter()
    for x, prec in ((10**6 + Fraction(1, 3), 128), (Fraction(-10**6) - Fraction(1, 3), 128),
                    (1e20, 53), (10**12, 128)):
        with mp.workprec(prec + 64):
            ref = mp.gamma(mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x)
            assert abs(gamma_real(x, prec) - ref) <= abs(ref) * mp.mpf(2) ** -prec, x
    with pytest.raises(ValueError, match="pole"):
        gamma_real(-10**9, 64)
    assert time.perf_counter() - start < 2


def test_gamma_near_a_pole_takes_mpf_argument_exactly():
    # x sits 2^-200 from the pole at -3, closer than prec + guard bits resolve
    prec = 128
    with mp.workprec(528):
        x = mp.mpf(-3) + mp.mpf(2) ** -200
        ref = mp.gamma(x)
        assert abs(gamma_real(x, prec) - ref) < abs(ref) * mp.mpf(2) ** -(prec - 8)


def test_bessel_half_integer_closed_forms():
    with mp.workprec(140):
        x = mp.mpf(2)
        assert abs(bessel_j(mp.mpf("0.5"), x, 128) - mp.sqrt(2 / (mp.pi * x)) * mp.sin(x)) < mp.mpf(2) ** -120
        assert abs(bessel_j(mp.mpf("-0.5"), x, 128) - mp.sqrt(2 / (mp.pi * x)) * mp.cos(x)) < mp.mpf(2) ** -120


def test_bessel_small_argument_leading_term():
    with mp.workprec(100):
        nu, x = mp.mpf(2), mp.mpf("1e-8")
        lead = (x / 2) ** nu / gamma_real(3, 100)
        assert abs(bessel_j(nu, x, 96) / lead - 1) < mp.mpf("1e-15")
    with pytest.raises(ValueError):
        bessel_j(1, -1, 64)


def _ulps(val, ref, prec):
    """|val - ref| in units of the last place of ref at prec bits."""
    with mp.workprec(prec + 64):
        return abs(val - ref) / mp.ldexp(1, mp.mag(ref) - prec)


# a = A/q: dyadic (q = 2^K) positive, negative non-integer (-3 + 2^-40 and
# -2 - 2^-40 sit next to poles), integer, and poles (zero); 1/3 held to 450
# bits, more than the series' precision; non-dyadic, with -3 + 10^-30 next to
# a pole; then past the exact ratio's size, through Stirling's series
RGAMMA_ARGUMENTS = [(5, 2), (41, 8), (1, 32), (2**40 + 1, 2**40), (-5, 2), (-41, 8),
                    (-3 * 2**40 + 1, 2**40), (-2 * 2**40 - 1, 2**40), (1, 1), (7, 1),
                    (0, 1), (-3, 1), (2**450 // 3, 2**450), (7, 3), (-41, 6), (5, 6),
                    (-3 * 10**30 + 1, 10**30), (3 * 10**6 + 1, 3), (-3 * 10**6 - 1, 3),
                    (10**12, 1), (300 * 2**600 + 1, 2**600), (-300 * 2**600 + 1, 2**600)]


def test_rgamma_matches_mpmath():
    special._held.clear()
    for precs in ([53, 128, 300, 700, 830], [830, 700, 300, 128, 53]):
        for a_num, q in RGAMMA_ARGUMENTS:
            for prec in precs:
                val = mp.make_mpf(_rgamma(a_num, q, prec))
                # exact for dyadic a; else a's rounding moves 1/Gamma by 2^-(prec + 20)
                with mp.workprec(prec + a_num.bit_length() + q.bit_length() + 20):
                    ref = mp.rgamma(mp.mpf(a_num) / q)
                with mp.workprec(prec):
                    ref = +ref
                if not ref:
                    assert not val, (a_num, q)
                else:
                    assert _ulps(val, ref, prec) <= 2, (a_num, q, prec)


def fresh_held_values(monkeypatch) -> list:
    """The kinds of the held values computed afresh from here on, one per computation."""
    fresh, held_value = [], special._held_value
    monkeypatch.setattr(special, "_held_value", lambda key, wp, value: held_value(
        key, wp, lambda: fresh.append(key[0]) or value()))
    return fresh


def test_rgamma_calls_one_per_fractional_order(monkeypatch):
    # counts the integer series behind each fresh 1/Gamma(1 + phi), and each fresh value
    # of the one table by kind: a check at a precision no higher than the table's
    # computes none of them
    calls = []
    series = special._rgamma_series
    monkeypatch.setattr(special, "_rgamma_series",
                        lambda *args: calls.append(args) or series(*args))
    fresh = fresh_held_values(monkeypatch)

    def count(fn, *args):
        calls.clear()
        fresh.clear()
        fn(*args)
        kinds = {kind: fresh.count(kind) for kind in ("rgamma", "power", "cos", "root")}
        assert kinds["rgamma"] == len(calls)
        return kinds

    def kinds(rgamma, power, cos, root):
        return {"rgamma": rgamma, "power": power, "cos": cos, "root": root}

    special._held.clear()
    residual = difference_equation_residual
    assert count(residual, mp.mpf("5.25"), 1, 300, "f") == kinds(1, 1, 1, 1)
    assert count(residual, mp.mpf("5.25"), 1, 300, "f") == kinds(0, 0, 0, 0)
    assert count(residual, mp.mpf("5.25"), 1, 200, "f") == kinds(0, 0, 0, 0)
    assert count(residual, mp.mpf("5.25"), 1, 400, "f") == kinds(1, 1, 1, 1)
    # g at 10.25 shares the root at eps = 1 and nothing else
    assert count(residual, mp.mpf("10.25"), 1, 400, "g") == kinds(1, 1, 0, 0)
    special._held.clear()
    assert count(numeric_wronskian, mp.mpf("7.25"), 1, 300) == kinds(2, 2, 1, 1)
    assert count(numeric_wronskian, mp.mpf("7.25"), 1, 300) == kinds(0, 0, 0, 0)
    assert count(numeric_wronskian, mp.mpf("7.25"), 1, 256) == kinds(0, 0, 0, 0)
    assert count(numeric_wronskian, mp.mpf("7.25"), 1, 512) == kinds(2, 2, 1, 1)
    # cos(pi z) is keyed by z mod 2: z = 9.25 reads 7.25's
    assert count(numeric_wronskian, mp.mpf("9.25"), 1, 512) == kinds(0, 0, 0, 0)
    # the target's order -1/6 and each L + 5/6 share 1/Gamma(1 + 5/6); the target's
    # (x/2)^(5/6) is the one power
    special._held.clear()
    scaling = charlier_scaling_limit_check
    for prec, new in ((300, 1), (300, 0), (340, 1), (700, 1), (340, 0)):
        assert count(scaling, Fraction(1, 3), 0, 1, [40, 80], prec) == kinds(new, new, 0, 0)


def test_rising_precision_sweep_builds_no_gamma_table(monkeypatch):
    # a warm process meets each fractional order at ever higher precisions;
    # each fresh 1/Gamma(1 + phi) comes from the integer series, never from
    # mpmath's Gamma Taylor table, which it rebuilds per 30-bit bucket, and
    # these arguments, near the origin, all take the exact ratio
    def refuse(*args):
        raise AssertionError("mpmath's Gamma Taylor table or Stirling's series was asked for")

    monkeypatch.setattr(gammazeta, "gamma_taylor_coefficients", refuse)
    monkeypatch.setattr(special, "_rgamma_stirling", refuse)
    special._held.clear()
    for prec in (256, 384, 512, 640, 768):
        tol = mp.mpf(2) ** -(prec // 2)
        for which in ("f", "g"):
            assert difference_equation_residual(mp.mpf("5.25"), 1, prec, which) < tol
        with mp.workprec(prec):
            assert abs(numeric_wronskian(mp.mpf("7.25"), Fraction(1, 2), prec) - 1) < tol
    for prec in (300, 340, 700):
        report = charlier_scaling_limit_check(Fraction(1, 3), 0, 1, [40, 80], prec)
        assert report.monotone_decreasing


def test_rgamma_memo_is_bounded():
    # the one table holds every kind of value, the _HELD_SIZE most recently used of them
    for i in range(100):
        bessel_j(mp.mpf(2 * i + 1) / 256, 1, 128)
        numeric_f(mp.mpf(2 * i + 1) / 256 + 3, Fraction(i + 7, 7), 128)
    assert len(special._held) == _HELD_SIZE
    assert {key[0] for key in special._held} == {"rgamma", "power", "cos", "root"}
    assert ("root", 106, 7) in special._held and ("root", 1, 1) not in special._held


def test_held_values_match_an_emptied_table():
    # a value held at a higher precision than a call asks for enters its next step
    # unrounded: with the table kept over precisions swept up and then down, f, g and J
    # stay within 2 ulp of what each call gives on an emptied table.  The points share
    # eps, z mod 2 and phi at different x, so a key that left out a part would show
    points = [(mp.mpf("5.25"), Fraction(1, 2)), (mp.mpf("-7.25"), Fraction(2)),
              (mp.mpf("-6.75"), Fraction(2)), (Fraction(10, 3), Fraction(2, 3)),
              (Fraction(41, 8), Fraction(1, 3)), (Fraction(21, 8), Fraction(1, 2))]
    calls = [(fn, (z, eps)) for z, eps in points for fn in (numeric_f, numeric_g)]
    calls += [(bessel_j, (z + Fraction(1, 2), 2 / eps)) for z, eps in points]
    calls += [(bessel_j, (-z, 4 / eps)) for z, eps in points]
    precs = [53, 128, 300, 700, 830]
    emptied = {}
    for prec in precs:
        for fn, args in calls:
            special._held.clear()
            emptied[fn, args, prec] = fn(*args, prec)
    special._held.clear()
    for prec in precs + precs[::-1]:
        for fn, args in calls:
            val, ref = fn(*args, prec), emptied[fn, args, prec]
            assert _ulps(val, ref, prec) <= 2, (fn.__name__, args, prec)


# the orders of the numeric sweep: f and g at z = 5.25, 10.25, 20.25 take
# nu = -/+(z + 1/2), the scaling targets mu = zeta - l - 1/2 = -1/2, 1/2, -1;
# J_-37(1/8) ~ -5.4e-94 and J_20(1/8) fall far below 1
@pytest.mark.parametrize("prec", [128, 148, 640, 768])
def test_bessel_matches_mpmath(prec):
    # -1, -3 and -37 start the series past the Gamma poles at m = -nu
    for nu in ("5.75", "-5.75", "10.75", "-10.75", "20.75", "-20.75",
               "0.5", "-0.5", "0", "2", "-1", "-3", "20", "-37"):
        for x in ("0.125", "0.5", "1", "2", "4", "8"):
            val = bessel_j(mp.mpf(nu), mp.mpf(x), prec)
            with mp.workprec(prec + 64):
                ref = mp.besselj(mp.mpf(nu), mp.mpf(x))
                assert abs(val - ref) <= abs(ref) * mp.mpf(2) ** -prec, (nu, x)


@pytest.mark.parametrize("prec", [53, 128, 333, 700])
def test_bessel_rational_orders(prec):
    # a Fraction order is taken exactly: non-dyadic ones against mpmath, and
    # the sweep's dyadic ones bit for bit against the same order as an mpf
    # 1/3 held to 450 bits has a fractional part longer than the series' precision
    for nu in (Fraction(1, 3), Fraction(-17, 6), Fraction(-2, 3), Fraction(2**450 // 3, 2**450)):
        for x in ("0.125", "2", "8"):
            val = bessel_j(nu, mp.mpf(x), prec)
            with mp.workprec(prec + 64 + nu.denominator.bit_length()):
                ref = mp.besselj(mp.mpf(nu.numerator) / nu.denominator, mp.mpf(x))
                assert abs(val - ref) <= abs(ref) * mp.mpf(2) ** -prec, (nu, x)
    for nu in ("5.75", "-5.75", "10.75", "-10.75", "20.75", "-20.75", "0.5", "-0.5", "-1"):
        for x in ("0.125", "2", "8"):
            assert bessel_j(Fraction(nu), mp.mpf(x), prec) == bessel_j(mp.mpf(nu), mp.mpf(x), prec)
    long_third = mp.make_mpf(from_man_exp(2**450 // 3, -450))
    assert bessel_j(Fraction(2**450 // 3, 2**450), 2, prec) == bessel_j(long_third, 2, prec)


@settings(max_examples=25, deadline=None)
@given(st.integers(-40 * 64, 40 * 64), st.integers(0, 6),
       st.integers(1, 16 * 64), st.integers(64, 400))
def test_bessel_recurrence(nu_num, k, x_num, prec):
    # J_(nu-1) + J_(nu+1) = (2 nu / x) J_nu, each J within 2^-prec relative
    nu, x = mp.ldexp(nu_num, -k), mp.ldexp(x_num, -6)
    lo, mid, hi = (bessel_j(nu + d, x, prec) for d in (-1, 0, 1))
    with mp.workprec(prec + 64):
        gap = abs(lo + hi - 2 * nu / x * mid)
        assert gap <= max(abs(lo), abs(hi)) * mp.mpf(2) ** -(prec - 3)


@pytest.mark.parametrize("prec, gap_exp, x_exp",
                         [(128, -150, -39), (640, -660, -150), (128, -200, -40)])
def test_bessel_near_negative_integer_order(prec, gap_exp, x_exp):
    # nu + m = +-2^gap_exp at m = -round(nu): the term before it is below the
    # tail test, but dividing by nu + m brings the next one back up.  At
    # gap_exp = -200 nu needs more bits than prec + guard and must not be
    # rounded onto the pole.
    x = mp.mpf(2) ** x_exp
    for base in (-3, -1):
        for sign in (1, -1):
            with mp.workprec(prec + 800):
                nu = base + sign * mp.mpf(2) ** gap_exp
                val = bessel_j(nu, x, prec)
                ref = mp.besselj(nu, x)
                assert abs(val - ref) < abs(ref) * mp.mpf(2) ** -(prec - 8), (base, sign)


def test_bessel_large_argument_keeps_relative_accuracy():
    # past x of about 26 the terms exceed |J| by more than the guard bits
    rng = random.Random(20)
    for _ in range(200):
        k = rng.randint(0, 5)
        nu = mp.ldexp(rng.randint(-48 << k, 48 << k), -k)
        x = mp.ldexp(rng.randint(26 * 64 + 1, 40 * 64), -6)
        prec = rng.randint(53, 800)
        val = bessel_j(nu, x, prec)
        with mp.workprec(prec + 200):
            ref = mp.besselj(nu, x)
            assert abs(val - ref) <= abs(ref) * mp.mpf(2) ** -prec, (nu, x, prec)
    for nu, x, prec in ((4, "30.75", 333), (0, 28, 128)):
        val = bessel_j(nu, mp.mpf(x), prec)
        with mp.workprec(prec + 200):
            ref = mp.besselj(nu, mp.mpf(x))
            assert abs(val - ref) <= abs(ref) * mp.mpf(2) ** -prec, (nu, x, prec)


def test_bessel_sums_once_up_to_x_16(monkeypatch):
    # the deterministic Bessel tests, all at x <= 16, never take the second pass,
    # so their values are those of the one-pass sum: one pass per order evaluated,
    # by `bessel_j` or by a wave check's shared call
    calls, passes = [], []
    bessel_sum, orders = special._bessel_sum, special._bessel_orders

    def counted(nu, x, shifts, prec):
        values = orders(nu, x, shifts, prec)
        calls.extend((nu, k, x, prec) for k in shifts)
        return values

    monkeypatch.setattr(special, "_bessel_sum", lambda *args: passes.append(args) or bessel_sum(*args))
    monkeypatch.setattr(special, "_bessel_orders", counted)
    test_bessel_half_integer_closed_forms()
    test_bessel_small_argument_leading_term()
    test_rgamma_memo_is_bounded()
    for prec in (128, 148, 640, 768):
        test_bessel_matches_mpmath(prec)
    for args in ((128, -150, -39), (640, -660, -150), (128, -200, -40)):
        test_bessel_near_negative_integer_order(*args)
    test_difference_equation_residuals()
    test_wronskian_unity()
    for prec in (128, 640):
        test_split_waves_match_pair(prec)
    test_asymptotic_match()
    test_scaling_limit()
    # and a grid near x = 16, where J_nu(x) cancels the most, up to 25 bits
    for nu in range(-192, 193):
        for x in range(28, 33):
            bessel_j(mp.ldexp(nu, -2), mp.ldexp(x, -1), 64)
    assert len(calls) > 500
    assert len(passes) == len(calls)


def test_bessel_sums_each_order_at_most_twice_at_x_2000(monkeypatch):
    # at x = 2/eps = 2000 the terms cancel about x log2(e) = 2885 bits; a second pass
    # that allows for that much is the last, where one that allowed only the
    # cancellation its first pass measured summed each order 16 times
    passes, orders = [], []
    bessel_sum, bessel_orders = special._bessel_sum, special._bessel_orders

    def counted(nu, x, shifts, prec):
        orders.extend(shifts)
        return bessel_orders(nu, x, shifts, prec)

    monkeypatch.setattr(special, "_bessel_sum", lambda *args: passes.append(args) or bessel_sum(*args))
    monkeypatch.setattr(special, "_bessel_orders", counted)
    assert difference_equation_residual(mp.mpf("5.25"), Fraction(1, 1000), 128, "f") < mp.mpf(2) ** -64
    val = bessel_j(Fraction(1, 3), 2000, 128)
    with mp.workprec(300):
        assert abs(val - mp.besselj(mp.mpf(1) / 3, 2000)) <= abs(val) * mp.mpf(2) ** -128
    assert len(orders) == 4 and len(passes) <= 2 * len(orders)


# the wave checks' points: z at the bench's residual and Wronskian points, nu = z + 1/2
WAVE_POINTS = [(mp.mpf(z), eps) for z in ("5.25", "7.25", "10.25", "12.25", "20.25")
               for eps in (Fraction(1, 2), Fraction(1), Fraction(2))]


@pytest.mark.parametrize("prec", [128, 640])
def test_shared_start_term_matches_bessel_j(prec):
    # each order nu + k from one shared start term equals its own bessel_j call;
    # -4 + 2^-(prec/2) sits just outside the wave guard of a negative integer,
    # and the integer orders -2..2 start their sums at different m
    def check(nu, x, shifts):
        for k, val in zip(shifts, special._bessel_orders(nu, x, shifts, prec)):
            with mp.workprec(prec + 64):
                ref = bessel_j(nu + k, x, prec)
                assert abs(val - ref) <= abs(ref) * mp.mpf(2) ** -prec, (nu, k, x)

    for z, eps in WAVE_POINTS:
        with mp.workprec(prec + 2 * _GUARD_BITS):
            nu, x = z + mp.mpf(1) / 2, 2 / (mp.mpf(eps.numerator) / eps.denominator)
        check(nu, x, (-1, 0, 1))
        check(-nu, x, (1, -1, 0))
    with mp.workprec(prec + _GUARD_BITS):
        near = mp.mpf(-4) + mp.ldexp(1, -(prec // 2))
    for x in (mp.mpf(1), mp.mpf(4)):
        check(near, x, (-1, 0, 1))
        check(mp.mpf(-1), x, (-1, 1, -2, 0, 2))
        check(Fraction(-17, 6), x, (2, -1, 0))


def test_wave_checks_share_one_start_term(monkeypatch):
    # on an emptied table one residual takes one (x/2)^phi power, one sqrt and at most
    # one cos; a Wronskian takes the powers at nu and -nu, one cos and one sqrt.  The
    # same call at the same or a lower precision reads them all from the table, and a
    # higher one computes each once more
    counts = {"power": 0, "cospi": 0, "sqrt": 0}
    special.mp.prec  # bind special's mp, so the patches below are the ones its waves read

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(mp, name, counting(name, getattr(mp, name)))

    def ops(fn, *args):
        for name in counts:
            counts[name] = 0
        fn(*args)
        return dict(counts)

    none = dict.fromkeys(counts, 0)
    for z, eps in WAVE_POINTS:
        for prec in (256, 640):
            for check, fresh in (((difference_equation_residual, "f"), (1, 1, 1)),
                                 ((difference_equation_residual, "g"), (1, 0, 1)),
                                 ((numeric_wronskian,), (2, 1, 1))):
                fn, which = check[0], check[1:]
                special._held.clear()
                assert ops(fn, z, eps, prec, *which) == dict(zip(counts, fresh))
                assert ops(fn, z, eps, prec, *which) == none
                assert ops(fn, z, eps, prec - 64, *which) == none
                assert ops(fn, z, eps, prec + 64, *which) == dict(zip(counts, fresh))


def per_term_bessel_sum(term, m, y_num, den_shift, n_int, q, tail_bits, cap):
    # `_bessel_sum` before its split into two phases: every term updates the largest |T|,
    # and the stop test compares it against max(max_abs, |acc|)
    acc = max_abs = 0
    while True:
        acc += term
        max_abs = max(max_abs, abs(term))
        m += 1
        den = (m * (n_int + m * q)) << den_shift
        term = -(term * y_num) // den
        if (m > 1 and 2 * y_num < den
                and abs(term) << (tail_bits + 1) < max(max_abs, abs(acc)) + 1):
            return acc, max_abs
        if m > cap:
            raise RuntimeError("Bessel series failed to converge")


def test_two_phase_bessel_sum_matches_the_per_term_loop(monkeypatch):
    # the two-phase stop implies the per-term test, so it comes at the same term or later.
    # On every sum the bench's wave checks and scaling targets make, and on the orders next
    # to a pole, it gives the same (sum, largest |T|), but for a few f sums at orders -19/4,
    # -23/4 and -27/4, whose first terms share one sign so that |sum| > max_abs: there the
    # per-term test stops earlier, on |T| 2^(tail_bits+1) <= |sum|.  The later stop moves
    # the sum by less than that test's own tail bound, max(max_abs, |sum|) 2^-tail_bits
    # (at 730 bits, order -23/4, by more than max_abs 2^-tail_bits), and no rounded value.
    sums, orders, later = [], [], []
    bessel_sum, bessel_orders = special._bessel_sum, special._bessel_orders

    def compared(*args):
        sums.append(args)
        (acc, max_abs), (ref, ref_max) = bessel_sum(*args), per_term_bessel_sum(*args)
        assert max_abs == ref_max and abs(acc - ref) << args[6] < max(max_abs, abs(ref)), args
        if acc != ref:
            later.append((args[4], args[5], args[6]))
        return acc, max_abs

    def counted(nu, x, shifts, prec):
        orders.extend(shifts)
        return bessel_orders(nu, x, shifts, prec)

    monkeypatch.setattr(special, "_bessel_sum", compared)
    monkeypatch.setattr(special, "_bessel_orders", counted)
    for prec in (256, 730, 768):
        for z, eps in WAVE_POINTS:
            special._waves(z, eps, prec, [(w, k) for w in "fg" for k in (-1, 0, 1)])
        # charlier_scaling_limit_check's targets J_mu(2/eps), mu = zeta - l - 1/2
        for mu, x in ((Fraction(-1, 2), 2), (Fraction(-1), 2), (Fraction(1, 2), 4)):
            bessel_j(mu, x, prec)
        with mp.workprec(prec + _GUARD_BITS):
            near = mp.mpf(-4) + mp.ldexp(1, -(prec // 2))
        # at x = 2^-400 T_1 is below the stop already, and both loops still add it (m > 1)
        for x in (mp.ldexp(1, -400), 1, 4, 16, 40):
            special._bessel_orders(-3, x, (-1, 1, -2, 0, 2), prec)
            special._bessel_orders(Fraction(-17, 6), x, (-1, 0, 1, 2), prec)
            special._bessel_orders(near, x, (-1, 0, 1), prec)
    assert len(orders) == 3 * (15 * 6 + 3 + 5 * 12)
    assert sorted(later) == [(-27, 4, 798), (-27, 4, 798), (-23, 4, 760), (-19, 4, 286),
                             (-19, 4, 798)]
    assert len(sums) > len(orders)  # x = 16 and x = 40 sum some orders again


def test_charlier_poly_small_cases():
    assert charlier_poly(0, 1).coefficients == (Fraction(1),)
    assert charlier_poly(1, 1).coefficients == (Fraction(-3, 2), Fraction(1))
    with pytest.raises(ValueError):
        charlier_poly(1, 0)
    with pytest.raises(ValueError):
        charlier_poly(-1, 1)


@pytest.mark.parametrize("a", [1, Fraction(1, 2), Fraction(7, 3)])
def test_explicit_sum_matches_recurrence(a):
    # the recurrence polynomial of degree ell against the explicit sum at
    # ell + 1 distinct points, which fix a polynomial of that degree
    for ell in range(9):
        p = charlier_poly(ell, a)
        assert len(p.coefficients) == ell + 1 and p.coefficients[-1] == 1
        for i in range(ell + 1):
            x = Fraction(2 * i - 3, 3)
            assert p.eval_exact(x) == charlier_value(ell, a, x)


@pytest.mark.parametrize("a", [1, Fraction(1, 2), Fraction(7, 3), Fraction(3, 40)])
def test_charlier_value_matches_polynomial(a):
    for ell in range(41):
        poly = charlier_poly(ell, a)
        # at x = k + 1/2 the factor (1/2 - x)_i vanishes from i = k + 1 on, so
        # k < ell ends the sum early (k = ell - 1 is the scaling check's L + 1/2)
        for x in (Fraction(0), Fraction(-5, 7), Fraction(1, 3), Fraction(ell + 3),
                  Fraction(1, 2), Fraction(ell // 2) + Fraction(1, 2),
                  Fraction(2 * ell - 1, 2), Fraction(2 * ell + 1, 2)):
            value = charlier_value(ell, a, x)
            assert value == poly.eval_exact(x)
    with pytest.raises(ValueError):
        charlier_value(1, 0, 1)
    with pytest.raises(ValueError):
        charlier_value(-1, 1, 1)


# (L + l, a, x): the numeric sweep's largest scaling points, L = 320 for its
# three (zeta, l, eps), a = 1/(L eps^2) and x = L + zeta; then a non-dyadic a
# at negative non-dyadic x, where no factor of the sum vanishes
@pytest.mark.parametrize("ell, a, x", [
    (320, Fraction(1, 320), Fraction(320)),
    (321, Fraction(1, 320), Fraction(641, 2)),
    (320, Fraction(1, 80), Fraction(321)),
    (120, Fraction(7, 3), Fraction(-41, 6)),
])
def test_charlier_value_at_bench_scale(ell, a, x):
    assert charlier_value(ell, a, x) == charlier_poly(ell, a).eval_exact(x)


def test_scaling_rows_match_polynomial_route():
    zeta, ell, eps, prec = Fraction(1, 2), 1, Fraction(1), 128
    rep = charlier_scaling_limit_check(zeta, ell, eps, [40, 80], prec)
    for L, value, _ in rep.rows:
        exact = charlier_poly(L + ell, Fraction(1, L) / eps**2).eval_exact(L + zeta)
        with mp.workprec(prec + _GUARD_BITS):
            num = mp.mpf(exact.numerator) / exact.denominator
            old = num / gamma_real(L + 1, prec + _GUARD_BITS)
        with mp.workprec(prec):
            assert value == +old
    # mu = zeta - ell - 1/2 = -1 sits on a Gamma pole of the Bessel series
    with mp.workprec(prec + 64):
        assert abs(rep.target - mp.besselj(-1, 2)) < mp.mpf(2) ** -(prec - 8)


def orthogonality_reference(ell, ellp, a, tol, prec):
    """The orthogonality pairing with a Fraction-coefficient Horner step per atom."""
    p, q = charlier_poly(ell, a).coefficients, charlier_poly(ellp, a).coefficients

    def horner(coefficients, x):
        acc = mp.mpf(0)
        for c in reversed(coefficients):
            acc = acc * x + c
        return acc

    deg = ell + ellp
    with mp.workprec(prec + _GUARD_BITS):
        tol_m = mp.mpf(tol)
        a_m = mp.mpf(a.numerator) / a.denominator
        weight = mp.e ** (-a_m)
        acc = mp.mpf(0)
        n = 0
        while True:
            x = mp.mpf(2 * n + 1) / 2
            acc += horner(p, x) * horner(q, x) * weight
            n += 1
            weight *= a_m / n
            if a_m / (n + 1) < mp.mpf(1) / 2:
                g = (1 + 1 / (n + mp.mpf(1) / 2)) ** deg
                r = (a_m / (n + 1)) * g
                if r < mp.mpf(1) / 2:
                    x = mp.mpf(2 * n + 1) / 2
                    tail = (horner([abs(c) for c in p], x) * horner([abs(c) for c in q], x)
                            * weight / (1 - r))
                    if tail < tol_m / 4:
                        break
        target = a_m**ell * factorial(ell) if ell == ellp else mp.mpf(0)
    with mp.workprec(prec):
        return +acc, +target


# 1 and 5/2 give dyadic coefficients; 7/3 makes every conversion round.  At
# a = 1/1000 the ratio a/(n+1) is below 1/2 from the first step on, so only the
# weight gates the tail test; at a = 9 the weights peak late, near n = 9.  The
# benchmark sweeps a = 1, 2, 3 over 256..768 bits; 300 and 767 sit in its
# lowest and highest bands.
@pytest.mark.parametrize("prec", [128, 640, 300, 767])
@pytest.mark.parametrize("a", [Fraction(1), Fraction(5, 2), Fraction(7, 3),
                               Fraction(1, 1000), Fraction(9), Fraction(2), Fraction(3)])
def test_orthogonality_sums_bit_identical(a, prec):
    tol = mp.mpf(2) ** -(prec // 2)
    for ell in range(4):
        for ellp in range(ell, 4):
            assert (charlier_orthogonality_sum(ell, ellp, a, tol, prec)
                    == orthogonality_reference(ell, ellp, a, tol, prec)), (ell, ellp)


# At a = 50 and 200, e^-a is below tol/2 from atom 0 on, but the weights rise
# to a peak near n = a before they fall: the tail test's first atom is set by
# a/(n+1) < 1/2, n >= 2a, and by the weight after that.
@pytest.mark.parametrize("a, prec", [(Fraction(50), 128), (Fraction(200), 128),
                                     (Fraction(200), 300)])
def test_orthogonality_sums_bit_identical_past_the_weight_peak(a, prec):
    tol = mp.mpf(2) ** -(prec // 2)
    with mp.workprec(prec + _GUARD_BITS):
        assert mp.e ** -mp.mpf(int(a)) < tol / 2
    for ell in range(4):
        for ellp in range(ell, 4):
            assert (charlier_orthogonality_sum(ell, ellp, a, tol, prec)
                    == orthogonality_reference(ell, ellp, a, tol, prec)), (ell, ellp)


def _random_operand(rng, wp, top):
    man = rng.getrandbits(rng.randint(1, top)) | 1
    return (-man if rng.random() < 0.5 else man), rng.randint(-3 * wp, wp)


@pytest.mark.parametrize("wp", [53, 158, 330, 797])
def test_rounded_steps_match_libmp(wp):
    """`_rounded` on an exact product or sum equals libmp's mpf_mul / mpf_add
    at round_nearest and wp bits."""
    rng = random.Random(wp)

    def check(m1, e1, m2, e2):
        x, y = from_man_exp(m1, e1), from_man_exp(m2, e2)
        assert from_man_exp(*_rounded(m1 * m2, e1 + e2, wp)) == mpf_mul(x, y, wp, round_nearest)
        assert from_man_exp(*_rounded(m1, e1, wp, m2, e2)) == mpf_add(x, y, wp, round_nearest)
        assert from_man_exp(*_rounded(m2, e2, wp, m1, e1)) == mpf_add(y, x, wp, round_nearest)

    for _ in range(300):  # operands of up to wp bits, as the atom table holds
        check(*_random_operand(rng, wp, wp), *_random_operand(rng, wp, wp))
    for _ in range(100):  # wider operands: products and sums that round far down
        check(*_random_operand(rng, wp, 3 * wp), *_random_operand(rng, wp, 3 * wp))
    for _ in range(100):  # exponent gaps past 100 bits: mpf_add's perturbation branch
        m1, e1 = _random_operand(rng, wp, wp)
        m2, _ = _random_operand(rng, wp, wp)
        gap = rng.choice([101, 102, wp + 3, wp + 4, wp + 5, 2 * wp, 3 * wp + 7])
        for e2 in (e1 + gap, e1 - gap):
            check(m1, e1, m2, e2)
            check(m1, e1, -m2, e2)
    for _ in range(50):  # a zero accumulator, as the pair loop starts
        m, e = _random_operand(rng, wp, wp)
        x = from_man_exp(m, e)
        assert from_man_exp(*_rounded(0, 0, wp, m, e)) == mpf_add(fzero, x, wp, round_nearest)
        assert from_man_exp(*_rounded(m, e, wp, 0, 0)) == mpf_add(x, fzero, wp, round_nearest)
    # exact ties: 2k + 1 has wp + 1 bits, halfway between 2k and 2k + 2,
    # so it rounds down for even k and up for odd k, to an even mantissa
    for _ in range(50):
        k = rng.getrandbits(wp - 1) | 1 << (wp - 1)
        for kk in (k & ~1, k | 1):
            for sign in (1, -1):
                man, exp = _rounded(sign * (2 * kk + 1), -5, wp)
                assert (man, exp) == (sign * (kk + (kk & 1)), -4)
                check(sign * 2 * kk, -5, 1, -5)
                check(sign * (2 * kk + 1), 0, 1, 0)  # a tied product
                check(sign * 2 * kk, -5, -1, -5)


@pytest.mark.parametrize("wp", [53, 158, 330, 797])
def test_weight_steps_match_libmp(wp):
    """The atom table's weight step w *= a/n, `_quotient` then `_rounded`,
    equals libmp's mpf_div and mpf_mul at round_nearest and wp bits."""
    rng = random.Random(wp)

    def check(a_man, a_exp, n, w):
        a_m = from_man_exp(a_man, a_exp)
        ratio = mpf_div(a_m, from_int(n), wp, round_nearest)
        r_man, r_exp = _quotient(a_man, a_exp, n, wp)
        assert from_man_exp(r_man, r_exp) == ratio, (a_man, a_exp, n)
        w_man, w_exp = w
        assert (from_man_exp(*_rounded(w_man * r_man, w_exp + r_exp, wp))
                == mpf_mul(from_man_exp(w_man, w_exp), ratio, wp, round_nearest))

    for _ in range(300):
        # a = p/q > 0 converted at wp: non-dyadic q, and dyadic q, whose a is exact
        p = rng.getrandbits(rng.randint(1, 2 * wp)) + 1
        q = rng.choice([rng.getrandbits(rng.randint(1, wp)) | 1, 1 << rng.randint(0, 64)])
        _, a_man, a_exp, _ = mpf_div(from_int(p), from_int(q), wp, round_nearest)
        # n >= 1, with powers of two, where mpf_div takes its exact shortcut
        for n in (rng.randint(1, 1000), rng.getrandbits(rng.randint(1, 80)) + 1,
                  1 << rng.randint(0, 70)):
            check(a_man, a_exp, n, (rng.getrandbits(wp) | 1 << (wp - 1), rng.randint(-3 * wp, 0)))
    for _ in range(50):  # exact ties: the quotient k has wp + 1 bits and is odd
        n, k = rng.randint(3, 10**6) | 1, rng.getrandbits(wp) | 1 << wp | 1
        check(n * k, rng.randint(-wp, wp), n, (1, 0))


def test_tail_parts_are_computed_once_per_table(monkeypatch):
    """Over the ten pairs l <= l' <= 3 at one (a, prec), each |pi_l|(x_n) and
    each (n, l + l') ratio bound is computed at most once, and the pair loop
    makes no libmp mpf_mul, mpf_div or mpf_add call."""
    a, prec = Fraction(2), 300
    tol = mp.mpf(2) ** -(prec // 2)
    pairs = [(ell, ellp) for ell in range(4) for ellp in range(ell, 4)]
    _atoms.cache_clear()
    horner_calls, powers, libmp_calls = [], [], {"mpf_mul": 0, "mpf_div": 0, "mpf_add": 0}
    horner = special._horner

    def counting_horner(coefficients, x_man, x_exp, wp):
        caller = sys._getframe(1).f_code.co_name
        horner_calls.append((caller, tuple(coefficients), x_man, x_exp))
        return horner(coefficients, x_man, x_exp, wp)

    mpf_type = type(mp.mpf(1))
    power = mpf_type.__pow__

    def counting_power(base, exponent):
        powers.append((base, exponent))
        return power(base, exponent)

    def counting(name, fn):
        def wrapped(*args):
            libmp_calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(charlier, "_horner", counting_horner)
    monkeypatch.setattr(mpf_type, "__pow__", counting_power)
    for module in (charlier, special):
        module.mp.prec  # bind the module's libmp names now, so that the first call keeps the patch
        for name, fn in (("mpf_mul", mpf_mul), ("mpf_div", mpf_div), ("mpf_add", mpf_add)):
            monkeypatch.setattr(module, name, counting(name, fn), raising=False)
    first = [charlier_orthogonality_sum(ell, ellp, a, tol, prec) for ell, ellp in pairs]
    atoms = _atoms(a, prec + _GUARD_BITS)
    bounds = [call for call in horner_calls if call[0] == "bound"]
    values = [call for call in horner_calls if call[0] == "grow"]
    assert len(bounds) == len(set(bounds)) == len(atoms.bounds) > 10
    assert len(values) == len(set(values)) == sum(map(len, atoms.values.values()))
    assert len(horner_calls) == len(bounds) + len(values)
    # one power per (n, l + l') stop part: its base 1 + 1/(n + 1/2) names n
    ratio_powers = [(base, deg) for base, deg in powers if isinstance(deg, int)
                    and base != atoms.a_m]
    assert len(ratio_powers) == len(set(ratio_powers)) == sum(
        1 for n, deg in atoms.stops if atoms.a_m / (n + 1) < mp.mpf(1) / 2) > 10
    # the weights grow on integer steps too: libmp multiplies, divides and adds nowhere
    assert libmp_calls == {"mpf_mul": 0, "mpf_div": 0, "mpf_add": 0}
    # a second pass reads the warm table: no Horner, no power, no libmp step
    del horner_calls[:], powers[:]
    assert [charlier_orthogonality_sum(ell, ellp, a, tol, prec) for ell, ellp in pairs] == first
    assert horner_calls == [] and libmp_calls == {"mpf_mul": 0, "mpf_div": 0, "mpf_add": 0}
    assert [deg for _, deg in powers if isinstance(deg, int)] == [0, 1, 2, 3]  # the targets a^l


def test_stop_parts_match_the_fresh_expression():
    # the per-atom parts a/(n+1) and 1 + 1/(n + 1/2) leave every 1 - r as the
    # one-line mpf expression gives it
    for a, prec in ((Fraction(1), 300), (Fraction(7, 3), 640), (Fraction(3), 128)):
        _atoms.cache_clear()
        tol = mp.mpf(2) ** -(prec // 2)
        for ell in range(4):
            for ellp in range(ell, 4):
                charlier_orthogonality_sum(ell, ellp, a, tol, prec)
        atoms = _atoms(a, prec + _GUARD_BITS)
        assert len(atoms.growth) == len({n for n, _ in atoms.stops}) < len(atoms.stops)
        with mp.workprec(prec + _GUARD_BITS):
            half = mp.mpf(1) / 2
            for (n, deg), stop in atoms.stops.items():
                ratio = atoms.a_m / (n + 1)
                r = ratio * (1 + 1 / (n + half)) ** deg if ratio < half else half
                assert stop == (1 - r if r < half else 0), (a, n, deg)


def test_orthogonality_sums_ignore_table_state():
    # interleaved (a, prec), so each group starts on a new table; both orders
    # of a pair, the same pair cold and warm, and a table whose weights
    # brute_force_expectation grew first
    _atoms.cache_clear()
    us = [mp.mpf(3), mp.mpf("4.5")]
    brute_force_expectation(2, Fraction(1), us, 60, 128)
    for a, prec, pairs in [
        (Fraction(1), 128, [(3, 1), (1, 3), (0, 0)]),
        (Fraction(7, 3), 640, [(2, 0), (0, 2), (3, 3)]),
        (Fraction(1), 640, [(3, 3), (1, 0), (0, 1)]),
        (Fraction(1, 1000), 128, [(2, 2), (3, 0)]),
        (Fraction(1), 128, [(3, 2), (2, 3), (0, 0)]),
    ]:
        tol = mp.mpf(2) ** -(prec // 2)
        for ell, ellp in pairs + pairs:
            assert (charlier_orthogonality_sum(ell, ellp, a, tol, prec)
                    == orthogonality_reference(ell, ellp, a, tol, prec)), (a, prec, ell, ellp)
        assert _atoms.cache_info().currsize <= 1


def test_fresh_orthogonality_job_grows_the_weights_in_one_pass(monkeypatch):
    # a fresh table reaches the start index in one grow call, not one per weight:
    # the first pair enters grow at most 3 times, the ten pairs of a job at most 70
    calls = []
    grow = charlier._Atoms.grow
    monkeypatch.setattr(charlier._Atoms, "grow",
                        lambda self, *args, **kw: calls.append(args) or grow(self, *args, **kw))
    for a in (Fraction(1), Fraction(2), Fraction(3)):
        for prec in (256, 512, 768):
            _atoms.cache_clear()
            calls.clear()
            tol = mp.mpf(2) ** -(prec // 2)
            per_pair = []
            for ell in range(4):
                for ellp in range(ell, 4):
                    before = len(calls)
                    charlier_orthogonality_sum(ell, ellp, a, tol, prec)
                    per_pair.append(len(calls) - before)
            assert per_pair[0] <= 3 and len(calls) <= 70, (a, prec, per_pair)


def test_orthogonality_rejects_bad_input_before_the_table():
    _atoms.cache_clear()
    tol = mp.mpf(2) ** -64
    for args, message in [
        ((-1, 0, 1, tol), "degrees must be >= 0"),
        ((0, -2, 1, tol), "degrees must be >= 0"),
        ((1, 1, 0, tol), "parameter a must be positive"),
        ((1, 1, Fraction(-1, 2), tol), "parameter a must be positive"),
        ((1, 1, 1, 0), "tol must be positive"),
        ((1, 1, 1, -tol), "tol must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            charlier_orthogonality_sum(*args, 128)
    with pytest.raises(ValueError, match="parameter a must be positive"):
        brute_force_expectation(1, 0, [mp.mpf(3)], 60, 128)
    with pytest.raises(ValueError, match="parameter a must be positive"):
        char_poly_expectation(1, 0, [mp.mpf(3)], 128)
    info = _atoms.cache_info()
    assert info.currsize == 0 and info.misses == 0


@pytest.mark.parametrize("fn, args, message", [
    (bessel_j, (1, -1, 64), "x must be positive, got x=-1"),
    (charlier_poly, (-1, 1), "degree must be >= 0, got ell=-1"),
    (charlier_poly, (2, Fraction(-1, 3)), "parameter a must be positive, got a=-1/3"),
    (charlier_value, (-2, 1, 3), "degree must be >= 0, got ell=-2"),
    (charlier_value, (2, 0, 3), "parameter a must be positive, got a=0"),
    (char_poly_expectation, (0, 1, [3], 64), "L must be >= 1, got L=0"),
    (char_poly_expectation, (1, 1, [3, "4.5", 3], 64),
     r"evaluation points must be distinct, got us=\['3.0', '4.5', '3.0'\]"),
    (brute_force_expectation, (3, 1, [3], 60, 64),
     "brute force supports L = 1 or 2 only, got L=3"),
    (difference_equation_residual, (Fraction(21, 4), 1, 64, "h"),
     "which must be 'f' or 'g', got which='h'"),
], ids=["bessel_j-x", "poly-ell", "poly-a", "value-ell", "value-a", "charpoly-L",
        "charpoly-distinct", "brute-L", "residual-which"])
def test_value_errors_name_the_offending_value(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_orthogonality_grid():
    tol = mp.mpf(10) ** -20
    for l in range(5):
        for lp in range(5):
            assert charlier_orthogonality_check(l, lp, 1, tol, 128)


def test_difference_equation_residuals():
    # 640 bits is inside the bench's band, and 2^-(prec/2) its tolerance
    for prec in (128, 640):
        for z in ("5.25", "10.25", "20.25"):
            for eps in (Fraction(1, 2), 1, 2):
                for which in ("f", "g"):
                    res = difference_equation_residual(mp.mpf(z), eps, prec, which)
                    assert res < mp.mpf(2) ** -(prec // 2)


def test_wronskian_unity():
    for prec in (128, 640):
        for z in ("7.25", "12.25"):
            for eps in (Fraction(1, 2), 1, 2):
                w = numeric_wronskian(mp.mpf(z), eps, prec)
                assert abs(w - 1) < mp.mpf(2) ** -(prec // 2)


@pytest.mark.parametrize("prec", [128, 640])
def test_split_waves_match_pair(prec):
    for z in ("5.25", "-3.75", "20.25"):
        for eps in (Fraction(1, 2), 1, 2):
            f, g = numeric_f_g(mp.mpf(z), eps, prec)
            assert numeric_f(mp.mpf(z), eps, prec) == f
            assert numeric_g(mp.mpf(z), eps, prec) == g


def test_near_integer_order_rejected():
    with pytest.raises(ValueError, match=r"too close to an integer at z=10\.5;"):
        numeric_f_g(mp.mpf("10.5") + mp.mpf(2) ** -200, 1, 128)
    # z + 1/2 = 11 + 2^-64: the guard 2^-(prec/2) catches it at 2^-63, exactly not at
    # 2^-64, and names z as given; the checks apply it at their working precision
    z = Fraction(21, 2) + Fraction(1, 2**64)
    for fn, args, prec in ((numeric_f, (), 126), (numeric_g, (), 126), (numeric_f_g, (), 126),
                           (difference_equation_residual, ("g",), 126 - _GUARD_BITS),
                           (numeric_wronskian, (), 126 - _GUARD_BITS)):
        with pytest.raises(ValueError, match=rf"at z={z};"):
            fn(z, 1, prec, *args)
        fn(z, 1, prec + 1, *args)


def test_asymptotic_match():
    r20 = asymptotic_match_check(20, 1, 3, 192)
    r40 = asymptotic_match_check(40, 1, 3, 192)
    assert r20.rel_error < mp.mpf(10) ** -4
    ratio = r20.abs_error / r40.abs_error
    assert 8 <= ratio <= 32
    r0 = asymptotic_match_check(20, 1, 0, 192)
    # M=0: error is dominated by the first dropped term (24-eps^2)/(24 eps^2 z)
    expected = mp.mpf(23) / 24 / 20
    assert abs(r0.abs_error / abs(r0.numeric) / expected - 1) < mp.mpf("0.1")


@pytest.mark.parametrize("z", [0, -5])
def test_asymptotic_match_rejects_nonpositive_z(z):
    # the formal series is an expansion at z -> +oo
    with pytest.raises(ValueError, match=r"need z > 0"):
        asymptotic_match_check(z, 1, 3, 128)


def test_scaling_limit():
    rep = charlier_scaling_limit_check(0, 0, 1, [20, 40, 80], 192)
    with mp.workprec(200):
        target = mp.sqrt(1 / mp.pi) * mp.cos(mp.mpf(2))
        assert abs(rep.target - target) < mp.mpf(2) ** -150
    assert rep.monotone_decreasing
    with pytest.raises(ValueError):
        charlier_scaling_limit_check(0, 2, 1, [2], 64)
    with pytest.raises(ValueError, match=r"repeated: \[20\]"):
        charlier_scaling_limit_check(0, 0, 1, [20, 40, 20], 64)


@pytest.mark.parametrize("sizes", [[], [20]])
def test_scaling_limit_needs_two_sizes(sizes):
    # with fewer than two rows the monotonicity flag would hold vacuously
    with pytest.raises(ValueError, match="at least two sizes"):
        charlier_scaling_limit_check(0, 0, 1, sizes, 64)


def test_char_poly_expectation_small():
    assert abs(char_poly_expectation(1, 1, [mp.mpf(3)], 128) - mp.mpf(3) / 2) < mp.mpf(2) ** -100
    with pytest.raises(ValueError):
        char_poly_expectation(1, 1, [mp.mpf(3), mp.mpf(3)], 64)


def test_char_poly_expectation_needs_a_point():
    with pytest.raises(ValueError, match="at least one evaluation point"):
        char_poly_expectation(1, 1, [], 64)


def test_brute_force_expectation_needs_a_point():
    # an empty product would average to 1 over any ensemble
    with pytest.raises(ValueError, match="at least one evaluation point"):
        brute_force_expectation(1, 1, [], 40, 64)


def char_poly_reference(L, a, us, prec):
    """The determinant with each pi evaluated by an mpf Horner on its Fraction
    coefficients, each step acc*x + c at the working precision."""
    a = Fraction(a)
    with mp.workprec(prec + _GUARD_BITS):
        us_m = [mp.mpf(u) for u in us]
        n = len(us_m)
        mat = []
        for u in us_m:
            row = []
            for k in range(n):
                acc = mp.mpf(0)
                for c in reversed(charlier_poly(L + k, a).coefficients):
                    acc = acc * u + c
                row.append(acc)
            mat.append(row)
        vdm = mp.fprod(us_m[k] - us_m[j] for j in range(n) for k in range(j + 1, n))
        val = mp.det(mp.matrix(mat)) / vdm
    with mp.workprec(prec):
        return +val


@pytest.mark.parametrize("prec", [128, 640])
@pytest.mark.parametrize("a", [Fraction(1), Fraction(7, 3)])
def test_char_poly_expectation_bit_identical(a, prec):
    for L in (1, 2):
        for us in ((3,), (3, 4.5)):
            assert (char_poly_expectation(L, a, us, prec)
                    == char_poly_reference(L, a, us, prec)), (L, us)


def test_brute_force_agrees_with_determinant():
    tol = mp.mpf(10) ** -15
    for L in (1, 2):
        for us in ((mp.mpf(3),), (mp.mpf(3), mp.mpf("4.5"))):
            cp = char_poly_expectation(L, 1, us, 128)
            bf = brute_force_expectation(L, 1, us, 60, 128)
            assert abs(cp - bf) < tol
    with pytest.raises(ValueError):
        brute_force_expectation(3, 1, [mp.mpf(3)], 60, 64)
    with pytest.raises(ValueError):
        brute_force_expectation(1, 1, [mp.mpf(3)], 2, 64)


def test_brute_force_rejects_fewer_than_two_atoms():
    # one atom has no pairs, so the L = 2 partition sum would be 0
    us = (mp.mpf(3), mp.mpf("4.5"))
    for L in (1, 2):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                brute_force_expectation(L, Fraction(1, 1000), us, n_max, 128)


def pair_sum_reference(a, us, n_max, prec):
    """The L = 2 ensemble average as the literal double sum over atom pairs,
    with the same n_max and tail checks as `brute_force_expectation`."""
    with mp.workprec(prec + _GUARD_BITS):
        a_m = mp.mpf(a.numerator) / a.denominator
        if a_m / (n_max + 1) >= mp.mpf(1) / 4:
            raise ValueError("n_max too small for a convergent tail bound")
        weights = []
        w = mp.e ** (-a_m)
        for nn in range(n_max + 1):
            weights.append(w)
            w *= a_m / (nn + 1)
        xs = [mp.mpf(2 * nn + 1) / 2 for nn in range(n_max + 1)]
        dets = [mp.fprod(mp.mpf(u) - x for u in us) for x in xs]
        num = den = shell = mp.mpf(0)
        for i in range(n_max + 1):
            for j in range(n_max + 1):
                vdm2 = (xs[i] - xs[j]) ** 2
                ww = weights[i] * weights[j]
                num += dets[i] * dets[j] * vdm2 * ww
                den += vdm2 * ww
                if i == n_max or j == n_max:
                    shell += abs(dets[i] * dets[j] * vdm2 * ww) + vdm2 * ww
        if 2 * shell > abs(den) * mp.mpf(2) ** (-prec // 2):
            raise ValueError("truncation tail too large; increase n_max")
        val = num / den
    with mp.workprec(prec):
        return +val


def smallest_n_max(a, us, prec):
    """The least n_max that `brute_force_expectation(2, ...)` accepts."""
    n_max = 1
    while True:
        try:
            brute_force_expectation(2, a, us, n_max, prec)
            return n_max
        except ValueError:
            n_max += 1


BRUTE_AS = [Fraction(1, 1000), Fraction(1, 2), Fraction(3), Fraction(10)]
BRUTE_US = [("3",), ("3", "4.5"), ("1.5", "2.5")]


@pytest.mark.parametrize("prec", [128, 640])
@pytest.mark.parametrize("a", BRUTE_AS)
def test_pair_moments_match_double_sum(a, prec):
    for us in BRUTE_US:
        us_m = [mp.mpf(u) for u in us]
        n_max = smallest_n_max(a, us_m, prec)
        val = brute_force_expectation(2, a, us_m, n_max, prec)
        ref = pair_sum_reference(a, us_m, n_max, prec)
        with mp.workprec(prec + _GUARD_BITS):
            assert abs(val - ref) <= abs(ref) * mp.mpf(2) ** -(prec - 2), (us, n_max)


@pytest.mark.parametrize("a", BRUTE_AS)
def test_pair_moments_keep_error_thresholds(a):
    prec, us = 128, [mp.mpf(3), mp.mpf("4.5")]
    n_max = smallest_n_max(a, us, prec)
    pair_sum_reference(a, us, n_max, prec)
    with pytest.raises(ValueError) as new:
        brute_force_expectation(2, a, us, n_max - 1, prec)
    with pytest.raises(ValueError) as old:
        pair_sum_reference(a, us, n_max - 1, prec)
    assert str(new.value) == str(old.value)
    # below n_max = 4a the convergence check fires before any sum is taken
    small = int(4 * a) - 1
    if small >= 1:
        with pytest.raises(ValueError, match="n_max too small"):
            brute_force_expectation(2, a, us, small, prec)
        with pytest.raises(ValueError, match="n_max too small"):
            pair_sum_reference(a, us, small, prec)


def brute_force_reference(L, a, us, n_max, prec):
    """`brute_force_expectation` with its own running-weight loop."""
    with mp.workprec(prec + _GUARD_BITS):
        a_m = mp.mpf(a.numerator) / a.denominator
        us_m = [mp.mpf(u) for u in us]
        weights = []
        w = mp.e ** (-a_m)
        for nn in range(n_max + 1):
            weights.append(w)
            w *= a_m / (nn + 1)
        xs = [mp.mpf(2 * nn + 1) / 2 for nn in range(n_max + 1)]
        vs = [mp.fprod(u - x for u in us_m) * w for x, w in zip(xs, weights)]
        if L == 1:
            num, den = mp.fsum(vs), mp.fsum(weights)
        else:
            def pair_sum(v):
                m0, m1, m2 = (mp.fdot(v, [i**k for i in range(len(v))]) for k in range(3))
                return 2 * (m0 * m2 - m1 * m1)
            num, den = pair_sum(vs), pair_sum(weights)
        val = num / den
    with mp.workprec(prec):
        return +val


def clustered_points(wp):
    """Four points within 2^-(wp-9) of the atom 4.5, exact at wp bits."""
    with mp.workprec(wp):
        return [mp.mpf("4.5") + sign * mp.ldexp(1, -(wp - gap))
                for sign in (1, -1) for gap in (8, 9)]


@pytest.mark.parametrize("prec", [128, 640, 300, 767])
@pytest.mark.parametrize("a", [Fraction(1), Fraction(7, 3), Fraction(1, 1000)])
def test_brute_force_weights_bit_identical(a, prec):
    # n_max as the bench's charpoly jobs take it
    n_max = 40 + prec // 8
    point_sets = [[mp.mpf(u) for u in us] for us in BRUTE_US]
    if a == Fraction(1, 1000):
        # mpf_sum drops a term whose top bit lies more than 2 wp bits below
        # the running sum's exponent.  That exponent follows each term added,
        # so decaying weights never trigger it, however long n_max is; at
        # points clustered on the atom 4.5, v_4 lies 4 wp bits below.  The
        # terms v_i i^k of atoms 0..3 have at most wp + 4 bits, so the running
        # exponent after them is at least their least top bit less wp + 4.
        wp = prec + _GUARD_BITS
        us_m = clustered_points(wp)
        with mp.workprec(wp):
            a_m = mp.mpf(a.numerator) / a.denominator
            tops = [mp.mag(mp.fprod(u - (n + mp.mpf(1) / 2) for u in us_m)
                           * mp.e ** -a_m * a_m**n / factorial(n)) for n in range(5)]
        assert tops[4] < min(tops[:4]) - (wp + 4) - 2 * wp - 2
        point_sets.append(us_m)
    for L in (1, 2):
        for us_m in point_sets:
            assert (brute_force_expectation(L, a, us_m, n_max, prec)
                    == brute_force_reference(L, a, us_m, n_max, prec)), (L, us_m)


@pytest.mark.parametrize("wp", [53, 158, 330, 797])
def test_sum_matches_mpf_sum(wp):
    """`_sum` is libmp's mpf_sum at wp bits, round_nearest, bit for bit,
    including its rules that drop a term far below the running sum and let
    one far above replace it, which decide exact ties."""
    def check(pairs):
        want = mpf_sum([from_man_exp(m, e) for m, e in pairs], wp, round_nearest)
        assert from_man_exp(*_sum(pairs, wp)) == want, pairs
        return want

    rng = random.Random(wp)
    for _ in range(300):
        pairs, exp = [], rng.randint(-4 * wp, 4 * wp)
        for _ in range(rng.randint(0, 12)):
            exp += rng.choice((rng.randint(-40, 40), rng.randint(-4 * wp, 4 * wp)))
            man = rng.getrandbits(rng.randint(1, 3 * wp)) << rng.randint(0, 5)
            pairs.append((rng.choice((1, -1)) * man, exp))
        check(pairs)
    tie = (1 << wp) + 1  # halfway between two wp-bit numbers: rounds to even, down
    for pairs in ([(tie, 0), (1, -3 * wp)],  # the tiny term is dropped
                  [(1, 0), (tie, 2 * wp + 2)],  # the tiny sum is replaced
                  [(-tie, 0), (-1, -3 * wp)],
                  # the same two rules, decided on the normalised exponents
                  [(tie << 10, -10), (1, -2 * wp - 5)],
                  [(1, 0), (tie << 10, 2 * wp - 8)]):
        exact = mpf_sum([from_man_exp(m, e) for m, e in pairs], 0)
        assert check(pairs) != mpf_add(exact, fzero, wp, round_nearest)
    assert check([]) == fzero and check([(0, 5), (3, 1), (-3, 1)]) == fzero
