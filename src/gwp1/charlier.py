"""Arbitrary-precision numerics: Bessel functions, Charlier polynomials, and
checks tying them to the formal wave expansions.

The polynomials are orthogonal with respect to the Poisson-type measure with
atoms at n + 1/2 (n >= 0) and weights e^(-a) a^n / n!; they are monic with
norm a^l * l!.  The module also evaluates the two numeric wave functions

    g(z) = sqrt(2*pi/eps) * J_{z+1/2}(2/eps)
    f(z) = sqrt(pi/(2*eps)) * J_{-z-1/2}(2/eps) / cos(pi*z)

which satisfy the same second-order difference equation as the formal waves
and have unit Wronskian, and it validates the scaling limit

    lim_L  pi_{L+l}(L + zeta; 1/(L eps^2)) / Gamma(L + zeta + 1/2)
         = eps^(zeta - l - 1/2) * J_{zeta - l - 1/2}(2/eps).

The polynomials come from the monic three-term recurrence (`charlier_poly`).
The explicit sum pi_l(x; a) = (-a)^l sum_i (-l)_i (1/2 - x)_i / i! (-1/a)^i is
the independent route, evaluated point by point (`charlier_value`) and
cross-checked there against the recurrence; the scaling check reads its values
from it instead of building the degree-L polynomial.

The module has one Gamma, `_rgamma`: a held 1/Gamma(1 + phi), phi the
fractional part of a, times an exact integer ratio, so arguments that differ
by integers share one.  A fresh one is summed in fixed point over Python ints
(`_rgamma_series`), so mpmath's Gamma Taylor table is never built; Stirling's
series serves far from the origin.  The Bessel series is summed in fixed point
too, and a residual or Wronskian check reads each of its waves at z + k from
one call (`_waves`): one sqrt(pi/(2 eps)), one cos(pi z), and per wave one
start term (x/2)^nu / Gamma(nu + 1) that its orders nu + k share through exact
integer ratios (`_bessel_orders`).  Gamma and Bessel take a Fraction exactly and
an mpf as the dyadic value it holds.

The orthogonality sums and the brute-force ensemble read one shared table of
atoms per (a, working precision), `_atoms`, kept for the most recent pair
only: the weights e^(-a) a^n / n! and each pi_l's coefficients and values
pi_l(n + 1/2), as (mantissa, exponent) pairs of Python ints grown on first
need.  Each step on them forms the exact quotient, product or sum and rounds it
once, ties to even (`_quotient`, `_rounded`), as libmp's correctly rounded
mpf_div, mpf_mul and mpf_add do, so every value is bit-identical to its mpf
expression.  The tail bound's pair-free parts are held in the table too.
`brute_force_expectation` sums its L = 2 pairs as moment forms
2 (M0 M2 - M1^2), each moment one exact integer sum rounded once (`_sum`).

All truncated sums carry explicit tail bounds; precision is always an
explicit argument, applied through a local working-precision context.
mpmath loads on the first numeric call: `mp` starts as a stand-in whose first
attribute read imports mpmath and binds `mp` and the libmp names.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import NamedTuple

from .waves import normalized_quartet

_GUARD_BITS = 30
_SPARE_BITS = 25  # of the guard, that bessel_j's sum may cancel in one pass


class _Mpmath:
    """`mp` until the first numeric call, which binds the mpmath names below."""

    def __getattr__(self, name):
        global mp, fone, from_int, from_man_exp, mpf_div, mpf_mul, mpf_shift, _RND, _HALF
        from mpmath import mp
        from mpmath.libmp import (
            fone, from_int, from_man_exp, mpf_div, mpf_mul, mpf_shift, round_nearest as _RND,
        )
        _HALF = mp.mpf(1) / 2
        return getattr(mp, name)


mp = _Mpmath()


def _as_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _dyadic(v) -> tuple[int, int, int]:
    """(M, e, bits of |M|) with v = M 2^e exactly, for an mpf v."""
    sign, man, exp, bc = v._mpf_
    return (-man if sign else man), exp, bc


def _mpf(pair):
    """The mpf M 2^e of a (mantissa, exponent) pair (M, e), exactly."""
    return mp.make_mpf(from_man_exp(*pair))


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _ratio(x) -> tuple[int, int]:
    """(N, q), q > 0, with x = N / q: a Fraction or int as is, an mpf as the
    dyadic value it holds, else the mpf x converts to at the working precision."""
    if isinstance(x, (Fraction, int)):
        return x.numerator, x.denominator
    man, exp, _ = _dyadic(x if isinstance(x, mp.mpf) else mp.mpf(x))
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


# ---------------------------------------------------------------------------
# Gamma and Bessel
# ---------------------------------------------------------------------------

def gamma_real(x, prec: int):
    """Gamma(x) at `prec` bits as 1 / `_rgamma`; errors on nonpositive-integer poles.
    x is taken exactly (`_ratio`), never rounded onto a pole."""
    with mp.workprec(prec + _GUARD_BITS):
        rgamma = mp.make_mpf(_rgamma(*_ratio(x), prec + _GUARD_BITS))
    if not rgamma:
        raise ValueError(f"Gamma pole at {x}")
    with mp.workprec(prec):
        return 1 / rgamma


# 1/Gamma(1 + r/q) per (r, q) as (bits, raw mpf), held at the highest
# precision asked so far, as mpmath holds pi; the _RGAMMA_HELD most recently
# used stay.
_RGAMMA_HELD = 16
_RATIO_BITS = 1 << 16  # ratio size past which `_rgamma` takes Stirling's series where it converges
_rgamma_memo: dict[tuple[int, int], tuple[int, tuple]] = {}


def _rgamma_series(r: int, q: int, bits: int):
    """1/Gamma(s) for s = 1 + r/q in (1, 2), as a raw mpf rounded to `bits`.

    Gamma(s) = N^s e^-N (S + rho) with S = sum_{n>=0} N^n / (s)_(n+1), the
    lower incomplete gamma series (DLMF 8.7.1), and rho N^s e^-N the upper
    part, the integral of t^(s-1) e^-t over t > N.  As t^(s-1) <= N^(s-2) t
    there, 0 <= rho <= (N + 1) / N^2, and N of about p ln 2 puts that below
    2^-p S; the check after the sum certifies it.  S runs in fixed point,
    T_0 = floor(2^P / s) and T_(n+1) = floor(T_n N / (s + n + 1)), each step
    one integer product and one floor division over the common denominator
    q.  From the first ratio N / (s + n + 1) < 1/2 on every later one is
    smaller, so once 2 T_(n+1) falls below 2^-p of the sum the rest is
    certified below it.  A floor loses less than one unit, and a unit lost at
    step j has grown by T_n / T_j <= max(T_n / T_0, 1) at step n (the terms
    rise, then fall), so the m terms summed lose less than (m + 1)^2 / T_0 <=
    2^(1-P) (m + 1)^2 of the sum; with m < 4p, P = p + 2 bits(p) + 6 keeps
    that below 2^-p.  The prefactor e^(N - phi ln N) / N is taken at p bits,
    phi = r/q included (exact for a dyadic q), within about (2N + 2 ln N)
    2^-p relative, and g = 2 bits(bits) + 24 guard bits (p = bits + g) leave
    the whole well under 2^-20 ulp at `bits` before the one rounding.
    """
    p = bits + 2 * bits.bit_length() + 24
    scale = p + 2 * p.bit_length() + 6
    n_cut = p * 7 // 10 + p.bit_length()  # 0.7 > ln 2
    num, den = n_cut * q, q + r  # N / (s + n) over q, at n = 0
    term = (q << scale) // den
    acc = 0
    while True:
        acc += term
        den += q
        term = term * num // den
        if 2 * num < den and term << (p + 1) < acc:
            break
    if (n_cut + 1) << (scale + p) > n_cut * n_cut * acc:
        raise RuntimeError("incomplete gamma tail not certified")
    with mp.workprec(p):
        phi = _mpf((r, 1 - q.bit_length())) if q & (q - 1) == 0 else mp.mpf(r) / q
        lead = mp.exp(n_cut - phi * mp.ln(n_cut))._mpf_
    return mpf_shift(mpf_div(lead, from_int(n_cut * acc), bits, _RND), scale)


def _gamma_ratio(a: int, q: int, n: int):
    """(num, den), raw mpfs with Gamma(a/q) / Gamma(a/q + n) = num / den exactly (DLMF
    5.5.1): q^n over the integer factors a + j q, 0 <= j < n, or those over q^-n for n < 0."""
    factors = from_int(prod(range(a + min(n, 0) * q, a + max(n, 0) * q, q)))
    # q^|n| as odd^|n| 2^(v |n|): libmp strips trailing zeros 8 bits per pass
    v = (q & -q).bit_length() - 1
    power = from_man_exp((q >> v) ** abs(n), v * abs(n))
    return (power, factors) if n >= 0 else (factors, power)


def _rgamma(a_num: int, q: int, wp: int):
    """1/Gamma(a) as a raw mpf rounded to wp bits, for a = a_num / q exactly, q > 0.

    With a = 1 + phi + n, phi = r/q in [0, 1) and n an integer, the held
    1/Gamma(1 + phi) times the exact ratio Gamma(1 + phi) / Gamma(a) of
    `_gamma_ratio` is rounded once more.  phi = 0 needs no Gamma, and a pole
    (phi = 0, n < 0) has the factor 0 and gives zero.  A fresh
    1/Gamma(1 + phi), from `_rgamma_series`, is within 1/2 + 2^-20 ulp.  Past
    `_RATIO_BITS` of product, where Stirling's series reaches wp bits,
    `_rgamma_stirling` serves instead, so the work stays bounded in |a|.
    """
    mp.prec  # binds the libmp names below when this is the first numeric call
    r, n = a_num % q, a_num // q - 1
    if 8 * abs(n) > wp + 64 and abs(n) * (abs(n) * q).bit_length() > _RATIO_BITS:
        return _rgamma_stirling(a_num, q, wp)
    num, den = _gamma_ratio(r + q, q, n)
    base = fone
    if r:
        held = _rgamma_memo.pop((r, q), None)
        if held is None or held[0] < wp:
            held = wp, _rgamma_series(r, q, wp)
        _rgamma_memo[r, q] = held
        if len(_rgamma_memo) > _RGAMMA_HELD:
            del _rgamma_memo[next(iter(_rgamma_memo))]
        base = held[1]
    return mpf_div(mpf_mul(base, num), den, wp, _RND)


def _rgamma_stirling(a_num: int, q: int, wp: int):
    """1/Gamma(a), a = a_num / q, as a raw mpf rounded to wp bits, for x > wp/8 + 7:
    x = a for a > 0, else x = 1 - a and 1/Gamma(a) = sin(pi a) Gamma(x) / pi
    (DLMF 5.5.3), sin(pi a) taken at a's exact distance to the nearest integer.

    ln Gamma(x) is Stirling's series (x - 1/2) ln x - x + ln(2 pi)/2 +
    sum_k B_2k / (2k (2k - 1) x^(2k-1)), its remainder below the first term
    left out (DLMF 5.11.1, 5.11(ii)).  The terms fall to about e^(-2 pi x),
    below 2^-(wp + 24) at such x, and are summed until one is, at
    wp + 2 bits(x) + 32 bits: the exponential is within 2^-(wp + 20) relative.
    """
    x_num = a_num if a_num > 0 else q - a_num
    with mp.workprec(wp + 2 * (x_num // q).bit_length() + 32):
        x = mp.mpf(x_num) / q
        s, k, x_pow = (x - _HALF) * mp.ln(x) - x + mp.ln(2 * mp.pi) / 2, 1, x
        while True:
            b_num, b_den = mp.bernfrac(2 * k)
            term = mp.mpf(b_num) / (b_den * 2 * k * (2 * k - 1)) / x_pow
            if mp.mag(term) < -wp - 24:
                break
            s, k, x_pow = s + term, k + 1, x_pow * x * x
        if a_num > 0:
            return from_man_exp(*_dyadic(mp.exp(-s))[:2], wp, _RND)
        r, sign = a_num % q, -1 if a_num // q % 2 else 1
        val = sign * mp.sinpi(mp.mpf(min(r, q - r)) / q) * mp.exp(s) / mp.pi
    return from_man_exp(*_dyadic(val)[:2], wp, _RND)


def _bessel_sum(term: int, m: int, y_num: int, den_shift: int, n_int: int, q: int,
                tail_bits: int, cap: int) -> tuple[int, int]:
    """(sum, largest |T|) of `bessel_j`'s scaled series from T_m on, to 2 |T| 2^tail_bits <
    max(max_abs, |acc|) + 1: relative to the sum's scale, the 1 one unit of the floors."""
    acc = max_abs = 0
    while True:
        acc += term
        max_abs = max(max_abs, abs(term))
        m += 1
        den = (m * (n_int + m * q)) << den_shift
        term = -(term * y_num) // den
        # once nu+m > 0 and the ratio y/(m (nu+m)) < 1/2, every later ratio
        # is smaller, so twice the next term bounds the whole remainder; with
        # nu+m in (-1, 0) the ratio is negative but the one after it unbounded
        if (m > 1 and 2 * y_num < den
                and abs(term) << (tail_bits + 1) < max(max_abs, abs(acc)) + 1):
            return acc, max_abs
        if m > cap:
            raise RuntimeError("Bessel series failed to converge")


def bessel_j(nu, x, prec: int):
    """J_nu(x) at `prec` bits, within 2^-prec relative: the one-order call of
    `_bessel_orders`, whose one start term a wave check shares across its orders."""
    return _bessel_orders(nu, x, (0,), prec)[0]


def _bessel_orders(nu, x, shifts, prec: int) -> list:
    """[J_(nu+k)(x) for k in shifts] at `prec` bits, each by its power series
    with an explicit geometric tail bound.

    Terms with nu+m+1 at a pole of Gamma are zero, so a sum starts at the first
    m off the poles (m = -nu for a negative integer nu, else 0).  nu is taken
    exactly as N/q (`_ratio`), never rounded onto a pole.  The start term
    (x/2)^nu (-y)^m / m! / Gamma(nu + m + 1), y = (x/2)^2, is computed once;
    order nu + k's is that one times an exact ratio of integers, (x/2)^k, the
    sign and factorials of its own m, and the Gamma ratio over N + j q
    (`_gamma_ratio`), rounded once.  Each sum runs in fixed point: with
    y = Y 2^e and the start term scaled to about wp + 20 bits, each term is one
    integer step T <- -T Y q 2^e / (m (N + m q)), exact up to one floor, until
    the ratio bound certifies the remainder below 2^-wp of the sum's scale:
    within 2^-prec of |J| relative however small J is.  Where the terms cancel
    more than `_SPARE_BITS` of the guard (past x of about 16, or near a zero of
    J) it sums again with the scale and the tail test raised as many bits.
    """
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        x_m = _to_mpf(x)
        if x_m <= 0:
            raise ValueError(f"x must be positive, got x={x}")
        n_0, q = _ratio(nu)
        m_0 = -n_0 if q == 1 and n_0 < 0 else 0
        a_0 = n_0 + (m_0 + 1) * q  # nu + m_0 + 1 = a_0 / q
        half = x_m / 2
        quarter_sq = half * half
        nu_m = nu if isinstance(nu, mp.mpf) else _to_mpf(nu)
        start = (mp.power(half, nu_m) * (-quarter_sq) ** m_0 / mp.factorial(m_0)
                 * mp.make_mpf(_rgamma(a_0, q, wp)))._mpf_
    (h_man, h_exp, _), (y_man, y_exp, _) = _dyadic(half), _dyadic(quarter_sq)
    y_num, den_shift = y_man * q << max(y_exp, 0), max(-y_exp, 0)
    values = []
    for k in shifts:
        n_int = n_0 + k * q
        m = -n_int if q == 1 and n_int < 0 else 0
        e, (num, den) = k + 2 * (m - m_0), _gamma_ratio(a_0, q, k + m - m_0)
        sign = (-1) ** (m - m_0 & 1)
        num = mpf_mul(num, from_man_exp(sign * h_man ** max(e, 0) * factorial(m_0), h_exp * e))
        den = mpf_mul(den, from_int(h_man ** max(-e, 0) * factorial(m)))
        t_man, t_exp, t_bits = _dyadic(mp.make_mpf(mpf_div(mpf_mul(start, num), den, wp, _RND)))
        # the scale 2^F puts the start term (at most wp bits) at wp + 20, so T is exact.  A
        # negative non-integer nu = N/q comes closest to a pole at |nu + m| = d/q (d >= 1),
        # and dividing by that scales the later terms up by q/d: carry that many more bits.
        top = wp + 20
        if q > 1 and n_int < 0:
            r = n_int % q
            top += (q - 1).bit_length() + 1 - min(r, q - r).bit_length()
        term = t_man << (top - t_bits)
        # the sum cancels about log2(max_abs / |acc|) bits, e^x / sqrt(x) or so for large x
        cap = 10 * (prec + abs(n_int) // q + int(x_m) + 10)
        lost = 0
        while True:
            acc, max_abs = _bessel_sum(term << lost, m, y_num, den_shift, n_int, q, wp + lost, cap)
            cancelled = max_abs.bit_length() - abs(acc).bit_length()
            if cancelled <= lost + _SPARE_BITS:
                break
            lost = cancelled
        values.append(mp.make_mpf(from_man_exp(acc, t_exp + t_bits - top - lost, prec, _RND)))
    return values


# ---------------------------------------------------------------------------
# Charlier polynomials (exact)
# ---------------------------------------------------------------------------

class CharlierPolynomial(NamedTuple):
    """Monic degree-l orthogonal polynomial for the half-shifted Poisson atoms."""

    ell: int
    a: Fraction
    coefficients: tuple[Fraction, ...]  # ascending powers of x

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def charlier_poly(ell: int, a) -> CharlierPolynomial:
    """pi_l(x; a) from the monic three-term recurrence, exact:
    p_(n+1) = (x - n - a - 1/2) p_n - n a p_(n-1), p_0 = 1."""
    a = _as_fraction(a)
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got ell={ell}")
    if a <= 0:
        raise ValueError(f"parameter a must be positive, got a={a}")
    prev, cur = [], [Fraction(1)]
    for n in range(ell):
        b_n = n + a + Fraction(1, 2)
        nxt = [Fraction(0)] + cur  # x p_n
        for i, v in enumerate(cur):
            nxt[i] -= b_n * v
        for i, v in enumerate(prev):
            nxt[i] -= n * a * v
        prev, cur = cur, nxt
    return CharlierPolynomial(ell, a, tuple(cur))


def charlier_value(ell: int, a, x) -> Fraction:
    """pi_l(x; a) at one rational point in O(l) integer operations.

    With a = p/q and x = r/s, both routes run over integers and build one
    Fraction at the end, so no gcd is taken per step.  The explicit sum
    total/den carries its current term as term/den; term i+1 is term i times
    num_i/den_i with num_i = (i-l)(s-2r+2is)(-q) and den_i = 2sp(i+1), the
    ratio (-l+i)(1/2-x+i) / ((i+1)(-a)), and the sum stops at the first
    num_i = 0.  The monic three-term recurrence runs as C_n / M^n with
    M = 2sq.  The two routes are compared by cross-multiplication; a
    disagreement is an error.
    """
    a = _as_fraction(a)
    x = _as_fraction(x)
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got ell={ell}")
    if a <= 0:
        raise ValueError(f"parameter a must be positive, got a={a}")
    p, q = a.numerator, a.denominator
    r, s = x.numerator, x.denominator
    total = term = den = 1
    for i in range(ell):
        num_i = (i - ell) * (s - 2 * r + 2 * i * s) * -q
        if not num_i:
            break  # (1/2 - x)_i vanishes from here on
        den_i = 2 * s * p * (i + 1)
        term *= num_i
        total = total * den_i + term
        den *= den_i
    # value = total (-p)^l / (den q^l)
    m = 2 * s * q
    b_0 = 2 * q * r - 2 * s * p - s * q
    step = 4 * p * s * s * q
    prev, cur = 0, 1
    for n in range(ell):
        prev, cur = cur, (b_0 - n * m) * cur - n * step * prev
    m_l = m**ell
    if total * (-p) ** ell * m_l != cur * den * q**ell:
        raise RuntimeError("explicit sum and recurrence disagree at this point")
    return Fraction(cur, m_l)


class _Atoms:
    """The atoms x_n = n + 1/2 of one (a, wp), grown one atom at a time.

    `weights[n]` = e^(-a) a^n / n!, `coefficients[l]` (pi_l's coefficients),
    `values[l][n]` = pi_l(x_n) and `bounds[l, n]` = |pi_l|(x_n) are
    (mantissa, exponent) pairs at wp bits, each rounded as the mpf steps
    weight *= a/n and acc*x + c round it (`_quotient`, `_rounded`), so a sum
    read from the table is bit-identical to one evaluated afresh.  The weights
    reach one atom past the longest row of values.  The stop test's mpf parts,
    `growth[n]` = (a/(n+1), 1 + 1/(n + 1/2)) and `stops[n, deg]` = 1 - r (or 0
    while its test fails), and the bounds are held once first asked for.
    """

    def __init__(self, a: Fraction, wp: int):
        self.a, self.wp = a, wp
        with mp.workprec(wp):
            self.a_m = _to_mpf(a)
            self.weights, self.a_pair = [_dyadic(mp.e ** (-self.a_m))[:2]], _dyadic(self.a_m)[:2]
        self.coefficients, self.values, self.stops, self.bounds, self.growth = {}, {}, {}, {}, {}

    def grow(self, count: int, *degrees: int, more=None) -> None:
        """Hold the weights of atoms 0..count, and on while more(weights) holds,
        and, for each listed degree l, pi_l at the atoms below count."""
        wp, weights, (a_man, a_exp) = self.wp, self.weights, self.a_pair
        while len(weights) <= count or more and more(weights):
            (w_man, w_exp), (r_man, r_exp) = weights[-1], _quotient(a_man, a_exp, len(weights), wp)
            weights.append(_rounded(w_man * r_man, w_exp + r_exp, wp))
        for ell in degrees:
            if ell not in self.values:
                with mp.workprec(wp):
                    self.coefficients[ell] = [
                        _dyadic(mp.convert(c))[:2] for c in charlier_poly(ell, self.a).coefficients]
                self.values[ell] = []
            values = self.values[ell]
            while len(values) < count:
                values.append(_horner(self.coefficients[ell], 2 * len(values) + 1, -1, wp))

    def stop(self, n, deg):
        """1 - r for r = a/(n+1) (1 + 1/(n + 1/2))^deg, the absolute-coefficient
        majorant's growth per unit step, or 0 unless a/(n+1) < 1/2 and r < 1/2, at
        wp; a/(n+1) and 1 + 1/(n + 1/2) are held per atom in `growth`."""
        if (n, deg) not in self.stops:
            if n not in self.growth:
                ratio = self.a_m / (n + 1)
                self.growth[n] = (ratio, 1 + 1 / (n + _HALF)) if ratio < _HALF else None
            growth = self.growth[n]
            r = growth[0] * growth[1] ** deg if growth else _HALF
            self.stops[n, deg] = 1 - r if r < _HALF else 0
        return self.stops[n, deg]

    def bound(self, ell, n):
        """|pi_l|(x_n), pi_l's absolute coefficients summed at x_n by Horner."""
        if (ell, n) not in self.bounds:
            self.bounds[ell, n] = _horner(
                [(abs(m), e) for m, e in self.coefficients[ell]], 2 * n + 1, -1, self.wp)
        return self.bounds[ell, n]


@lru_cache(maxsize=1)
def _atoms(a: Fraction, wp: int) -> _Atoms:
    """The atom table of the most recent (a, wp) only: callers pair all their
    degrees at one a before moving on, and one table keeps memory bounded."""
    return _Atoms(a, wp)


def _rounded(man, exp, wp: int, other=0, other_exp=0):
    """The (mantissa, exponent) pair of man 2^exp + other 2^other_exp,
    summed exactly and rounded once to wp bits, ties to even.

    libmp's mpf_add and mpf_mul at round_nearest are correctly rounded too,
    so this equals mpf_add on the two terms and, as _rounded(m1 m2, e1 + e2,
    wp), mpf_mul on two factors, bit for bit.  Adding 2^(shift-1) - 1, and
    1 more when the kept part is odd, makes the floor round up past the
    halfway point, and at it only to an even kept part."""
    if other:
        if exp > other_exp:
            man, exp, other, other_exp = other, other_exp, man, exp
        man += other << other_exp - exp
    mag = abs(man)
    shift = mag.bit_length() - wp
    if shift <= 0:
        return man, exp
    mag = (mag + (mag >> shift & 1) + (1 << shift - 1) - 1) >> shift
    return (mag if man > 0 else -mag), exp + shift


def _quotient(man, exp, n: int, wp: int):
    """The (mantissa, exponent) pair of man 2^exp / n, man > 0, rounded once to
    wp bits, ties to even, as libmp's mpf_div at round_nearest: the quotient to
    wp + 5 bits or more, with a sticky bit below it for a nonzero remainder."""
    shift = max(wp - man.bit_length() + n.bit_length() + 5, 5)
    quot, rem = divmod(man << shift, n)
    return _rounded(2 * quot + (rem > 0), exp - shift - 1, wp)


def _horner(coefficients, x_man, x_exp, wp: int):
    """sum_i c_i x^i over (mantissa, exponent) pairs, each step acc*x + c
    rounded to wp."""
    acc, acc_exp = coefficients[-1]  # 0 x + c, exact as c has at most wp bits
    for c_man, c_exp in reversed(coefficients[:-1]):
        acc, acc_exp = _rounded(*_rounded(acc * x_man, acc_exp + x_exp, wp), wp, c_man, c_exp)
    return acc, acc_exp


def charlier_orthogonality_sum(ell: int, ellp: int, a, tol, prec: int = 128):
    """(sum, target): the pairing of pi_l and pi_l' against the atom weights,
    alongside the exact norm a^l l! delta_{l,l'}.

    The truncation index is raised until a geometric bound certifies the
    discarded tail below tol/4; failing that is an error.  Weights and
    polynomial values are read from the shared atom table `_atoms(a, wp)`,
    so each atom costs three integer steps at wp, acc += (p q) w, each one
    rounded to nearest-even by `_rounded` as the libmp step it stands for.

    The test at atom n needs a/(n+1) < 1/2, n >= floor(2a), and from there
    on each weight is at most half the one before.  From n >= 1 on, x >= 3/2
    and the abs-coefficient Horner value |pi_l|(x) of a monic pi_l is >= x^l
    >= 1, so with 1/(1 - r) >= 1 the bound is >= |pi_l| |pi_l'| w >= w, and
    it can only pass once w < tol/4.  So the first n >= max(1, floor(2a))
    with w < tol/2 (the 2 absorbs rounding) is found once, the atoms before
    it are summed with no test, and from it on the test is skipped wherever
    the exponents alone give |pi_l| |pi_l'| w >= 2 tol/4.  Neither moves the
    stopping index.
    """
    a = _as_fraction(a)
    if ell < 0 or ellp < 0:
        raise ValueError(f"degrees must be >= 0, got l={ell}, l'={ellp}")
    if a <= 0:
        raise ValueError(f"parameter a must be positive, got a={a}")
    deg = ell + ellp
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        tol_m = _to_mpf(tol)
        if tol_m <= 0:
            raise ValueError(f"tol must be positive, got tol={tol}")
        atoms = _atoms(a, wp)
        a_m, weights = atoms.a_m, atoms.weights
        n_cap = 64 * (prec + deg + int(a_m) + 4)
        t_man, t_exp, t_bits = _dyadic(tol_m / 2)

        def below(w):  # w < tol/2, exactly
            return w[0] << max(w[1] - t_exp, 0) < t_man << max(t_exp - w[1], 0)
        n = max(1, 2 * a.numerator // a.denominator)  # a/(n+1) < 1/2: the weights fall from here
        atoms.grow(n, more=lambda w: len(w) <= n_cap + 1 and not below(w[-1]))
        n = bisect_left(weights, True, n, min(len(weights), n_cap + 1), key=below)
        atoms.grow(n, ell, ellp)
        p_x, q_x = atoms.values[ell], atoms.values[ellp]
        acc = acc_exp = done = 0
        while True:
            for i in range(done, n):
                (p_man, p_exp), (q_man, q_exp), (w_man, w_exp) = p_x[i], q_x[i], weights[i]
                term, exp = _rounded(p_man * q_man, p_exp + q_exp, wp)
                acc, acc_exp = _rounded(acc, acc_exp, wp, *_rounded(term * w_man, exp + w_exp, wp))
            done = n
            b, c, w = atoms.bound(ell, n), atoms.bound(ellp, n), weights[n]
            # the bound is >= b c w >= 2^(top bits - 3): it cannot pass where that is >= tol/2
            if (sum(e + m.bit_length() for m, e in (b, c, w)) - 3 < t_exp + t_bits
                    and (stop := atoms.stop(n, deg))
                    and _mpf(b) * _mpf(c) * _mpf(w) / stop < tol_m / 4):
                break
            if n > n_cap:
                raise RuntimeError("tail bound unachievable at the requested tolerance")
            n += 1
            atoms.grow(n, ell, ellp)
        target = a_m**ell * factorial(ell) if ell == ellp else mp.mpf(0)
    with mp.workprec(prec):
        return +_mpf((acc, acc_exp)), +target


def charlier_orthogonality_check(ell: int, ellp: int, a, tol, prec: int = 128) -> bool:
    """True when the pairing matches the norm a^l l! delta within tol."""
    acc, target = charlier_orthogonality_sum(ell, ellp, a, tol, prec)
    with mp.workprec(prec + _GUARD_BITS):
        return bool(abs(acc - target) <= _to_mpf(tol))


# ---------------------------------------------------------------------------
# Numeric wave functions
# ---------------------------------------------------------------------------

def _wave_arguments(z, eps, prec: int):
    """(z, eps, nu = z + 1/2, x = 2/eps) as mpf at the current working precision; errors
    within 2^-(prec/2) of an integer nu, where f's connection formula degenerates."""
    z_m, eps_m = _to_mpf(z), _to_mpf(eps)
    if eps_m <= 0:
        raise ValueError(f"need eps > 0, got eps={eps}")
    nu = z_m + _HALF
    if abs(nu - mp.nint(nu)) < mp.ldexp(1, -prec // 2):
        raise ValueError(f"z + 1/2 is too close to an integer at z={z}; "
                         "perturb the evaluation point")
    return z_m, eps_m, nu, 2 / eps_m


def _waves(z, eps, prec: int, points) -> list:
    """[w(z + k) for (w, k) in points] at `prec` bits, w "f" or "g", k an integer:
    one `_wave_arguments`, sqrt(pi/(2 eps)) (g's prefactor is twice it) and
    cos(pi z) per call, as cos pi(z + k) = (-1)^k cos(pi z), and one
    `_bessel_orders` per wave, J_(nu+k) for g(z + k) and J_(-nu-k) for f(z + k)."""
    with mp.workprec(prec + _GUARD_BITS):
        z_m, eps_m, nu, x = _wave_arguments(z, eps, prec)
        root, bessel = mp.sqrt(mp.pi / (2 * eps_m)), {}
        for wave, sign in (("f", -1), ("g", 1)):
            if shifts := [sign * k for w, k in points if w == wave]:
                bessel[wave] = iter(_bessel_orders(sign * nu, x, shifts, prec + _GUARD_BITS))
        cos = mp.cos(mp.pi * z_m) if "f" in bessel else None
        values = [root * next(bessel[w]) / (-cos if k % 2 else cos) if w == "f"
                  else 2 * root * next(bessel[w]) for w, k in points]
    with mp.workprec(prec):
        return [+v for v in values]


def numeric_f(z, eps, prec: int):
    """f(z) through its Bessel representation at `prec` bits."""
    return _waves(z, eps, prec, [("f", 0)])[0]


def numeric_g(z, eps, prec: int):
    """g(z) through its Bessel representation at `prec` bits."""
    return _waves(z, eps, prec, [("g", 0)])[0]


def numeric_f_g(z, eps, prec: int):
    """(f(z), g(z)) through the Bessel representations at `prec` bits."""
    return tuple(_waves(z, eps, prec, [("f", 0), ("g", 0)]))


def difference_equation_residual(z, eps, prec: int, which: str = "f"):
    """|w(z+1) + w(z-1) - eps*(z+1/2)*w(z)| for the numeric f or g."""
    if which not in ("f", "g"):
        raise ValueError(f"which must be 'f' or 'g', got which={which!r}")
    w_up, w_dn, w_0 = _waves(z, eps, prec + _GUARD_BITS, [(which, 1), (which, -1), (which, 0)])
    with mp.workprec(prec + _GUARD_BITS):
        res = abs(w_up + w_dn - _to_mpf(eps) * (_to_mpf(z) + _HALF) * w_0)
    with mp.workprec(prec):
        return +res


def numeric_wronskian(z, eps, prec: int):
    """f(z)g(z-1) - f(z-1)g(z); identically 1 for the normalized pair."""
    f1, g1, f0, g0 = _waves(z, eps, prec + _GUARD_BITS, [("f", 0), ("g", 0), ("f", -1), ("g", -1)])
    with mp.workprec(prec + _GUARD_BITS):
        w = f1 * g0 - f0 * g1
    with mp.workprec(prec):
        return +w


# ---------------------------------------------------------------------------
# Numeric-vs-formal asymptotics
# ---------------------------------------------------------------------------

class AsymptoticReport(NamedTuple):
    z: float
    eps: float
    order: int
    numeric: object
    formal: object
    abs_error: object
    rel_error: object

    def to_json(self) -> dict:
        return {
            "input": {"z": self.z, "eps": self.eps, "order": self.order},
            "value": mp.nstr(self.numeric, 17),
            "target": mp.nstr(self.formal, 17),
            "abs_error": mp.nstr(self.abs_error, 6),
            "rel_error": mp.nstr(self.rel_error, 6),
        }


def asymptotic_match_check(z, eps, order: int, prec: int) -> AsymptoticReport:
    """Compare (eps*z/e)^(-z) f(z) against the truncated formal wave series."""
    with mp.workprec(prec + _GUARD_BITS):
        z_m = _to_mpf(z)
        if z_m <= 0:
            raise ValueError(f"the formal series expands at z -> +oo: need z > 0, got z={z}")
        eps_m = _to_mpf(eps)
        f = numeric_f(z_m, eps_m, prec + _GUARD_BITS)
        numeric = f * mp.power(eps_m * z_m / mp.e, -z_m)
        h = normalized_quartet(order)[0]
        formal = mp.mpf(0)
        for d in range(h.top, -order - 1, -1):
            formal += h.coeff(d).eval(eps_m) * mp.power(z_m, d)
        abs_err = abs(numeric - formal)
        rel_err = abs_err / abs(numeric)
    with mp.workprec(prec):
        return AsymptoticReport(float(z), float(eps), order, +numeric, +formal, +abs_err, +rel_err)


# ---------------------------------------------------------------------------
# Scaling limit
# ---------------------------------------------------------------------------

class ScalingLimitReport(NamedTuple):
    zeta: object
    ell: int
    eps: object
    target: object
    rows: tuple  # (L, value, abs_error)
    monotone_decreasing: bool


def charlier_scaling_limit_check(zeta, ell: int, eps, L_list, prec: int) -> ScalingLimitReport:
    """Ratio pi_{L+l}(L + zeta; 1/(L eps^2)) / Gamma(L + zeta + 1/2) along L_list
    against eps^(zeta - l - 1/2) J_{zeta - l - 1/2}(2/eps).

    The polynomial values are computed exactly over rationals, one point each
    by `charlier_value`; only the Gamma division and the Bessel target are
    floating point; mu = zeta - l - 1/2 and each L + zeta + 1/2 are exact
    Fractions, so the target and every Gamma share one held 1/Gamma(1 + phi).
    """
    zeta_q, eps_q = _as_fraction(zeta), _as_fraction(eps)
    if eps_q <= 0:
        raise ValueError(f"need eps > 0, got eps={eps_q}")
    L_list = sorted(int(L) for L in L_list)
    if any(L < ell + 1 for L in L_list):
        raise ValueError(f"need every L >= ell + 1 = {ell + 1}, got L={L_list[0]}")
    repeated = sorted({L for L in L_list if L_list.count(L) > 1})
    if repeated:
        raise ValueError(f"sizes L must be distinct; repeated: {repeated}")
    if len(L_list) < 2:
        raise ValueError(f"the monotonicity flag needs at least two sizes L, got {L_list}")
    mu = zeta_q - ell - Fraction(1, 2)
    with mp.workprec(prec + _GUARD_BITS):
        eps_m = _to_mpf(eps_q)
        target = mp.power(eps_m, _to_mpf(mu)) * bessel_j(mu, 2 / eps_m, prec + _GUARD_BITS)
        rows = []
        for L in L_list:
            a = Fraction(1, L) / (eps_q * eps_q)
            exact = charlier_value(L + ell, a, L + zeta_q)
            value = _to_mpf(exact) / gamma_real(L + zeta_q + Fraction(1, 2), prec + _GUARD_BITS)
            rows.append((L, value, abs(value - target)))
        monotone = all(rows[i][2] > rows[i + 1][2] for i in range(len(rows) - 1))
    with mp.workprec(prec):
        return ScalingLimitReport(zeta_q, ell, eps_q, +target,
                                  tuple((L, +v, +e) for (L, v, e) in rows), monotone)


# ---------------------------------------------------------------------------
# Characteristic-polynomial expectations
# ---------------------------------------------------------------------------

def char_poly_expectation(L: int, a, us, prec: int = 128):
    """det( pi_{L+k-1}(u_j) )_{j,k=1..N} / prod_{j<k} (u_k - u_j).

    The coefficients of each pi are read from the shared atom table
    `_atoms(a, prec + _GUARD_BITS)`, which a brute-force average at the same
    a and precision then reuses.
    """
    a = _as_fraction(a)
    if L < 1:
        raise ValueError(f"L must be >= 1, got L={L}")
    if a <= 0:
        raise ValueError(f"parameter a must be positive, got a={a}")
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        us_m = [mp.mpf(u) for u in us]
        n = len(us_m)
        if n < 1:
            raise ValueError("need at least one evaluation point")
        if len(set(us_m)) < n:
            raise ValueError("evaluation points must be distinct, got us="
                             f"{[mp.nstr(u, 17) for u in us_m]}")
        atoms = _atoms(a, wp)
        atoms.grow(0, *range(L, L + n))
        mat = [[_mpf(_horner(atoms.coefficients[L + k], *_dyadic(u)[:2], wp))
                for k in range(n)] for u in us_m]
        vdm = mp.fprod(us_m[k] - us_m[j] for j in range(n) for k in range(j + 1, n))
        val = mp.det(mp.matrix(mat)) / vdm
    with mp.workprec(prec):
        return +val


def _sum(terms, wp: int):
    """libmp's mpf_sum at wp bits, round_nearest, on (mantissa, exponent)
    pairs: the exact sum, rounded once.  As there, with each term normalised
    to an odd mantissa, a term whose top bit lies more than 2 wp bits below
    the running sum's exponent is dropped, and one whose exponent lies more
    than 2 wp bits above the running sum's top bit replaces it."""
    limit = 2 * wp
    acc = acc_exp = 0
    for man, exp in terms:
        if not man:
            continue
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
        delta = exp - acc_exp
        if delta >= 0:
            if delta > limit and (not acc or delta - abs(acc).bit_length() > limit):
                acc, acc_exp = man, exp
            else:
                acc += man << delta
        elif -delta - abs(man).bit_length() > limit:
            if not acc:
                acc, acc_exp = man, exp
        else:
            acc, acc_exp = (acc << -delta) + man, exp
    return _rounded(acc, acc_exp, wp)


def _pair_sum(v, wp: int):
    """sum_{i,j} v_i v_j (i - j)^2 = 2 (M0 M2 - M1^2), M_k = sum_i v_i i^k,
    over (mantissa, exponent) pairs v_i, at the caller's working precision wp."""
    m0, m1, m2 = (_mpf(_sum(((m * i**k, e) for i, (m, e) in enumerate(v)), wp)) for k in range(3))
    return 2 * (m0 * m2 - m1 * m1)


def brute_force_expectation(L: int, a, us, n_max: int, prec: int = 128):
    """Direct ensemble average of prod_j det(u_j - M) for L <= 2.

    Sums over atom tuples (x_i = n_i + 1/2, n_i <= n_max) of the squared
    Vandermonde times the product weights, normalized by the same truncated
    partition sum.  For L = 2 both are 2 (M0 M2 - M1^2) in the moments
    M_k = sum_i v_i i^k.  The last shell, n_i = n_max or n_j = n_max, is twice
    its row 2 sum_j (|v_n v_j| + w_n w_j)(n - j)^2 ((n, n) adds 0); it must sit
    below a ratio-1/2 geometric bound relative to the accumulated sums,
    otherwise an error asks for a larger n_max.  The weights e^(-a) a^n / n!
    are read from the shared atom table `_atoms(a, prec + _GUARD_BITS)`.

    Per atom, v_n = prod_j (u_j - x_n) w_n runs on (mantissa, exponent) pairs
    by `_rounded`, and the moments and the shell are exact integer sums rounded
    once by `_sum`, so every value is the one the mpf expressions
    fprod(u - x for u in us) * w, fdot(v, i^k) and fsum give, bit for bit.
    """
    a = _as_fraction(a)
    if L not in (1, 2):
        raise ValueError(f"brute force supports L = 1 or 2 only, got L={L}")
    if a <= 0:
        raise ValueError(f"parameter a must be positive, got a={a}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1 (two atoms or more), got {n_max}")
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        a_m = _to_mpf(a)
        if a_m / (n_max + 1) >= mp.mpf(1) / 4:
            raise ValueError("n_max too small for a convergent tail bound")
        us_m = [mp.mpf(u) for u in us]
        if not us_m:
            raise ValueError("need at least one evaluation point")
        atoms = _atoms(a, wp)
        atoms.grow(n_max)
        weights = atoms.weights[:n_max + 1]
        points = [_dyadic(u)[:2] for u in us_m]
        vs = []
        for n, (w_man, w_exp) in enumerate(weights):
            v, v_exp = 1, 0
            for u_man, u_exp in points:
                d, d_exp = _rounded(u_man, u_exp, wp, -(2 * n + 1), -1)
                v, v_exp = _rounded(v * d, v_exp + d_exp, wp)
            vs.append(_rounded(v * w_man, v_exp + w_exp, wp))
        if L == 1:
            num, den = _mpf(_sum(vs, wp)), _mpf(_sum(weights, wp))
            shell = abs(_mpf(vs[-1])) + _mpf(weights[-1])
        else:
            num, den = _pair_sum(vs, wp), _pair_sum(weights, wp)
            (v_last, vl_exp), (w_last, wl_exp) = vs[-1], weights[-1]
            row = []
            for j, ((v, v_exp), (w, w_exp)) in enumerate(zip(vs, weights)):
                t, t_exp = _rounded(*_rounded(abs(v_last * v), vl_exp + v_exp, wp),
                                    wp, *_rounded(w_last * w, wl_exp + w_exp, wp))
                row.append(_rounded(t * (n_max - j) ** 2, t_exp, wp))
            shell = 2 * _mpf(_sum(row, wp))
        # ratio-1/4 weight decay makes each further shell at most ~half the
        # previous one even against polynomial growth, so 2*shell bounds the tail
        if 2 * shell > abs(den) * mp.mpf(2) ** (-prec // 2):
            raise ValueError("truncation tail too large; increase n_max")
        val = num / den
    with mp.workprec(prec):
        return +val
