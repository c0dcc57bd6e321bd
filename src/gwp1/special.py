"""Arbitrary-precision primitives of the numeric layer: Gamma, Bessel functions,
correctly rounded steps on dyadic pairs, and the two numeric wave functions

    g(z) = sqrt(2*pi/eps) * J_{z+1/2}(2/eps)
    f(z) = sqrt(pi/(2*eps)) * J_{-z-1/2}(2/eps) / cos(pi*z).

The module has one Gamma, `_rgamma`: 1/Gamma(1 + phi), phi the fractional part of a,
times an exact integer ratio.  A fresh 1/Gamma(1 + phi) is summed in fixed point over
Python ints (`_rgamma_series`); Stirling's series serves far from the origin.  The Bessel
series is summed in fixed point too, and a residual or Wronskian check reads its waves at
z + k from one call (`_waves`): one sqrt(pi/(2 eps)), one cos(pi z), and per wave one
start term (x/2)^nu / Gamma(nu + 1) that its orders nu + k share through exact integer
ratios (`_bessel_orders`).  Those four transcendental inputs, 1/Gamma(1 + phi), (x/2)^phi,
cos(pi z) and sqrt(pi/(2 eps)), are functions of exact rationals, and one bounded table,
`_held`, keeps each across calls at the highest precision asked so far.  Asked for prec
bits, `_waves` sums at prec + _GUARD_BITS, within about 2^(1-prec) relative.  Gamma and
Bessel take a Fraction exactly and an mpf as the dyadic value it holds.

The steps on (mantissa, exponent) pairs of Python ints form the exact
quotient, product or sum and round it once, ties to even (`_quotient`,
`_rounded`, `_horner`, `_sum`), as libmp's correctly rounded mpf_div, mpf_mul,
mpf_add and mpf_sum do, so every value is bit-identical to its mpf expression.

Precision is always an explicit argument, applied through a local
working-precision context.  mpmath loads on the first numeric call: each
numeric module holds its own stand-in `mp = _Mpmath(globals())`, whose first
attribute read imports mpmath and binds `mp`, the libmp names and `_HALF` as
that module's plain globals.  This module imports no other gwp1 module.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

_GUARD_BITS = 30
_SPARE_BITS = 25  # of the guard, that bessel_j's sum may cancel in one pass


class _Mpmath:
    """`mp` until the first numeric call, which binds `mp`, the libmp names and `_HALF`
    in `names`, the globals of the module that holds this stand-in."""

    def __init__(self, names: dict):
        self._names = names

    def __getattr__(self, name):
        from mpmath import libmp, mp
        self._names.update(
            mp=mp, fone=libmp.fone, from_int=libmp.from_int, from_man_exp=libmp.from_man_exp,
            mpf_div=libmp.mpf_div, mpf_mul=libmp.mpf_mul, mpf_pow_int=libmp.mpf_pow_int,
            mpf_shift=libmp.mpf_shift, _RND=libmp.round_nearest, _HALF=mp.mpf(1) / 2)
        return getattr(mp, name)


mp = _Mpmath(globals())


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


# key: (bits, raw mpf) at the highest precision asked so far, the _HELD_SIZE most recently
# used kept: ("rgamma", r, q) for 1/Gamma(1 + r/q), ("power", M, e, r, q) for (M 2^e)^(r/q),
# ("cos", N, Q) for cos(pi N/Q) and ("root", N, Q) for sqrt(pi Q/(2 N)), all exact.
_HELD_SIZE = 32
_RATIO_BITS = 1 << 16  # ratio size past which `_rgamma` takes Stirling's series where it converges
_held: dict[tuple, tuple[int, tuple]] = {}


def _held_value(key: tuple, wp: int, value):
    """`key`'s raw mpf at wp bits or more: the one held, else value() at wp bits, held."""
    held = _held.pop(key, None)
    if held is None or held[0] < wp:
        with mp.workprec(wp):
            held = wp, value()
    _held[key] = held
    if len(_held) > _HELD_SIZE:
        del _held[next(iter(_held))]
    return held[1]


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

    With a = 1 + phi + n, phi = r/q in [0, 1) and n an integer: the held 1/Gamma(1 + phi)
    (`_held`; fresh from `_rgamma_series`, within 1/2 + 2^-20 ulp) times the exact ratio
    Gamma(1 + phi) / Gamma(a) of `_gamma_ratio`, rounded once.  phi = 0 needs no Gamma; a
    pole (phi = 0, n < 0) has the factor 0 and gives zero.  Past `_RATIO_BITS` of product,
    where Stirling's series reaches wp bits, `_rgamma_stirling` keeps the work bounded in |a|.
    """
    mp.prec  # binds the libmp names below when this is the first numeric call
    r, n = a_num % q, a_num // q - 1
    if 8 * abs(n) > wp + 64 and abs(n) * (abs(n) * q).bit_length() > _RATIO_BITS:
        return _rgamma_stirling(a_num, q, wp)
    num, den = _gamma_ratio(r + q, q, n)
    base = _held_value(("rgamma", r, q), wp, lambda: _rgamma_series(r, q, wp)) if r else fone
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
    """(sum, largest |T|) of `bessel_j`'s scaled series from T_m on, in two loops.  The first
    runs while a term can still grow (m <= 1 or 2 y_num >= den, as for all nu+m <= 0), up to
    m = |nu| + x + 3 < cap at most, and tracks max_abs.  Then nu+m > 0 and m (nu+m) grows, so
    every later ratio is below 1/2 and falling: max_abs is final, twice a term bounds the
    rest, and each term is one product and one floor division up to |T| <= stop."""
    acc = max_abs = den = 0
    while m <= 1 or 2 * y_num >= den:
        acc += term
        max_abs = max(max_abs, abs(term))
        m += 1
        den = (m * (n_int + m * q)) << den_shift
        term = -(term * y_num) // den
    stop = max_abs >> (tail_bits + 1)
    while not -stop <= term <= stop:
        if m > cap:
            raise RuntimeError("Bessel series failed to converge")
        acc += term
        m += 1
        term = -(term * y_num) // ((m * (n_int + m * q)) << den_shift)
    return acc, max_abs


def bessel_j(nu, x, prec: int):
    """J_nu(x) at `prec` bits, within 2^-prec relative: the one-order call of
    `_bessel_orders`, whose one start term a wave check shares across its orders."""
    return _bessel_orders(nu, x, (0,), prec)[0]


def _bessel_orders(nu, x, shifts, prec: int) -> list:
    """[J_(nu+k)(x) for k in shifts] at `prec` bits by power series with a geometric tail bound.

    Terms with nu+m+1 at a pole of Gamma are zero, so a sum starts at the first m off the
    poles (m = -nu for a negative integer nu, else 0).  nu is taken exactly as N/q
    (`_ratio`), never rounded onto a pole.  The start term (x/2)^(nu+2m) / Gamma(nu+m+1)
    is the held (x/2)^phi, phi = nu - floor(nu), times (x/2)^(floor(nu) + 2m), exact for
    x/2 a power of two, times `_rgamma`'s value, unrounded; order nu + k's is that one
    times an exact ratio of integers, (x/2)^k, the sign and factorial of its own m, and
    the Gamma ratio over N + j q (`_gamma_ratio`), rounded once.  Each sum runs in fixed
    point: with y = (x/2)^2 = Y 2^e and the start term scaled to about wp + 20 bits, each
    term is one integer step T <- -T Y q 2^e / (m (N + m q)), exact up to one floor, up to
    the first |T| <= 2^-(wp+1) max |T| past the last ratio >= 1/2 (`_bessel_sum`): the
    rest is below 2^-wp of the sum's scale, within 2^-prec of |J| however small J is.
    Where the terms cancel more than `_SPARE_BITS` of the guard (past x of about 16, or
    near a zero of J), it sums again, the scale and stop raised by as many bits or by x
    log2(e), about what the terms cancel at large x, whichever is more.
    """
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        x_m = _to_mpf(x)
        if x_m <= 0:
            raise ValueError(f"x must be positive, got x={x}")
        n_0, q = _ratio(nu)
        m_0 = -n_0 if q == 1 and n_0 < 0 else 0
        a_0, r = n_0 + (m_0 + 1) * q, n_0 % q  # nu + m_0 + 1 = a_0 / q, nu - floor(nu) = r/q
        half = x_m / 2
        quarter_sq = half * half
    (h_man, h_exp, _), (y_man, y_exp, _) = _dyadic(half), _dyadic(quarter_sq)
    power = _held_value(("power", h_man, h_exp, r, q), wp,
                        lambda: mp.power(half, mp.mpf(r) / q)._mpf_) if r else fone
    start = mpf_mul(mpf_mul(power, mpf_pow_int(half._mpf_, n_0 // q + 2 * m_0, wp, _RND)),
                    _rgamma(a_0, q, wp))
    y_num, den_shift = y_man * q << max(y_exp, 0), max(-y_exp, 0)
    values = []
    for k in shifts:
        n_int = n_0 + k * q
        m = -n_int if q == 1 and n_int < 0 else 0
        e, (num, den) = k + 2 * (m - m_0), _gamma_ratio(a_0, q, k + m - m_0)
        num = mpf_mul(num, from_man_exp((-1) ** (m & 1) * h_man ** max(e, 0), h_exp * e))
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
        cap = 10 * (prec + abs(n_int) // q + int(x_m) + 10)
        lost = 0
        while True:
            acc, max_abs = _bessel_sum(term << lost, m, y_num, den_shift, n_int, q, wp + lost, cap)
            cancelled = max_abs.bit_length() - abs(acc).bit_length()
            if cancelled <= lost + _SPARE_BITS:
                break
            lost = max(cancelled, int(x_m / mp.ln2))
        values.append(mp.make_mpf(from_man_exp(acc, t_exp + t_bits - top - lost, prec, _RND)))
    return values


# ---------------------------------------------------------------------------
# Numeric wave functions
# ---------------------------------------------------------------------------

def _waves(z, eps, prec: int, points) -> list:
    """[w(z + k) for (w, k) in points] at `prec` bits, w "f" or "g", k an integer: the held
    sqrt(pi/(2 eps)) (g's prefactor is twice it) and cos(pi z), as cos pi(z + k) = (-1)^k
    cos(pi z), and one `_bessel_orders` per wave at x = 2/eps and nu = z + 1/2, both exact,
    J_(nu+k) for g(z + k) and J_(-nu-k) for f(z + k).  That call gets `prec`, as it adds
    its own guard: each value is within about 2^(1-prec) relative.  Errors within
    2^-(prec/2) of an integer nu, where f's formula degenerates."""
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        (z_n, z_q), (e_n, e_q), bessel = _ratio(z), _ratio(eps), {}
        if e_n <= 0:
            raise ValueError(f"need eps > 0, got eps={eps}")
        nu, x, z_n = Fraction(2 * z_n + z_q, 2 * z_q), Fraction(2 * e_q, e_n), z_n % (2 * z_q)
        if abs(nu - round(nu)) < Fraction(1, 1 << (prec + 1) // 2):
            raise ValueError(f"z + 1/2 is too close to an integer at z={z}; "
                             "perturb the evaluation point")
        root = mp.make_mpf(_held_value(("root", e_n, e_q), wp,
                                       lambda: mp.sqrt(mp.pi * e_q / (2 * e_n))._mpf_))
        for wave, sign in (("f", -1), ("g", 1)):
            if shifts := [sign * k for w, k in points if w == wave]:
                bessel[wave] = iter(_bessel_orders(sign * nu, x, shifts, prec))
        cos = mp.make_mpf(_held_value(("cos", z_n, z_q), wp, lambda: mp.cospi(
            mp.mpf(z_n) / z_q)._mpf_)) if "f" in bessel else None
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


# ---------------------------------------------------------------------------
# Correctly rounded steps on (mantissa, exponent) pairs
# ---------------------------------------------------------------------------

def _rounded(man, exp, wp: int, other=0, other_exp=0):
    """The (mantissa, exponent) pair of man 2^exp + other 2^other_exp, summed exactly and
    rounded once to wp bits, ties to even.

    libmp's mpf_add and mpf_mul at round_nearest are correctly rounded too, so this equals
    mpf_add on the two terms and, as _rounded(m1 m2, e1 + e2, wp), mpf_mul on two factors,
    bit for bit.  Adding 2^(shift-1) - 1, and 1 more when the kept part is odd, makes the
    floor round up past the halfway point, and at it only to an even kept part."""
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
    """sum_i c_i x^i over (mantissa, exponent) pairs, each step acc*x + c rounded to wp."""
    acc, acc_exp = coefficients[-1]  # 0 x + c, exact as c has at most wp bits
    for c_man, c_exp in reversed(coefficients[:-1]):
        acc, acc_exp = _rounded(*_rounded(acc * x_man, acc_exp + x_exp, wp), wp, c_man, c_exp)
    return acc, acc_exp

def _sum(terms, wp: int):
    """libmp's mpf_sum at wp bits, round_nearest, on (mantissa, exponent) pairs: the exact
    sum, rounded once.  As there, with each term normalised to an odd mantissa, a term whose
    top bit lies more than 2 wp bits below the running sum's exponent is dropped, and one
    whose exponent lies more than 2 wp bits above the running sum's top bit replaces it."""
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
