"""Arbitrary-precision primitives of the numeric layer: Gamma, Bessel functions, correctly
rounded steps on dyadic pairs, and the two numeric wave functions, with their difference
equation residual and Wronskian,

    g(z) = sqrt(2*pi/eps) * J_{z+1/2}(2/eps)
    f(z) = sqrt(pi/(2*eps)) * J_{-z-1/2}(2/eps) / cos(pi*z).

The one Gamma, `_rgamma`, is a held 1/Gamma(1 + phi), phi the fractional part of a, times an
exact integer ratio; a fresh 1/Gamma(1 + phi) is summed in fixed point (`_rgamma_series`),
and Stirling's series serves far from the origin.  The Bessel series is summed in fixed point
too, for x up to `_X_BOUND`, and each sum comes back exact (`_bessel_sums`).  `bessel_j`,
`numeric_f` and `numeric_g` round each sum once; the checks form their brackets exactly over
the sums and round once.  One bounded table, `_held`, keeps the transcendental inputs
1/Gamma(1 + phi), (x/2)^phi, cos(pi z) and sqrt(pi/(2 eps)), all of exact rationals, at the
highest precision asked so far.  Gamma and Bessel take a Fraction exactly and an mpf as the
dyadic value it holds.  The truncated exponential sum_{i <= m} a^i/i!, e^a Gamma(m+1, a)/m!,
gives the truncated Poisson weights their exact integer moments (`_moments`).

The steps on (mantissa, exponent) pairs of Python ints form the exact quotient, product or
sum and round it once, ties to even (`_quotient`, `_rounded`, `_horner`), as libmp's
correctly rounded mpf_div, mpf_mul and mpf_add do, so every value is bit-identical to its
mpf expression.

Precision is always an explicit argument.  mpmath loads on the first numeric call: each
numeric module holds its own stand-in `mp = _Mpmath(globals())`, whose first attribute read
imports mpmath and binds `mp`, the libmp names and `_HALF` as that module's plain globals.
This module imports no other gwp1 module.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, log, prod

_GUARD_BITS = 30
_SPARE_BITS = 25  # of the guard, that bessel_j's sum may cancel in one pass
_X_BOUND = 4096  # the largest x summed: a residual there takes 0.1 s (2-vCPU x86-64), as x^2


class _Mpmath:
    """`mp` until the first numeric call, which binds `mp`, the libmp names and `_HALF`
    in `names`, the globals of the module that holds this stand-in."""

    def __init__(self, names: dict):
        self._names = names

    def __getattr__(self, name):
        from mpmath import libmp, mp
        self._names.update(
            mp=mp, fone=libmp.fone, from_man_exp=libmp.from_man_exp, mpf_div=libmp.mpf_div,
            from_rational=libmp.from_rational, mpf_mul=libmp.mpf_mul, mpf_pos=libmp.mpf_pos,
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
    return mpf_shift(mpf_div(lead, from_man_exp(n_cut * acc, 0), bits, _RND), scale)


def _gamma_ratio(a: int, q: int, n: int):
    """(num, den), (mantissa, exponent) pairs with Gamma(a/q) / Gamma(a/q + n) = num / den exactly
    (DLMF 5.5.1): q^n over the integer factors a + j q, 0 <= j < n, or those over q^-n for n < 0."""
    factors = prod(range(a + min(n, 0) * q, a + max(n, 0) * q, q)), 0
    # q^|n| as odd^|n| 2^(v |n|): libmp strips trailing zeros 8 bits per pass
    v = (q & -q).bit_length() - 1
    power = (q >> v) ** abs(n), v * abs(n)
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
    return mpf_div(mpf_mul(base, from_man_exp(*num)), from_man_exp(*den), wp, _RND)


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


def _steps(p: int, q: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(f, g, p^(hi-lo)) with e_hi = f e_lo + p^lo g for e_m = m q e_(m-1) + p^m; past 64 steps
    the two halves' maps are composed (binary splitting), so long runs multiply balanced ints."""
    if hi - lo > 64:
        mid = (lo + hi) // 2
        (f, g, d), (f_hi, g_hi, d_hi) = _steps(p, q, lo, mid), _steps(p, q, mid, hi)
        return f_hi * f, f_hi * g + d * g_hi, d * d_hi
    f, g, d = 1, 0, 1
    for m in range(lo + 1, hi + 1):
        d *= p
        f, g = m * q * f, m * q * g + d
    return f, g, d


def _moments(p: int, q: int, n_max: int, count: int) -> list[int]:
    """S_k = sum_{n <= N} W_n n^k, k < count, W_n = p^n q^(N-n) N!/n!, N = n_max, as sum_j
    S(k, j) T_j: S(k, j) the Stirling numbers of the second kind, T_j = sum_n W_n n!/(n-j)! =
    p^j N!/(N-j)! e_(N-j), zero past j = N, e_m = sum_{i <= m} p^i q^(m-i) m!/i! the truncated
    exponential (`_steps`).  The recurrence run down gives T_(j+1) = p (T_j - p^N N!/(N-j)!)/q."""
    f, g, r = _steps(p, q, 0, n_max)
    sums = [f + g]
    for j in range(min(count, n_max + 1) - 1):
        sums.append(p * (sums[-1] - r) // q)
        r *= n_max - j
    moments, row = [], [1]  # row = S(k, j), j <= k
    for k in range(count):
        moments.append(sum(s * t for s, t in zip(row, sums)))
        row = [j * s + prev for j, (s, prev) in enumerate(zip(row + [0], [0] + row))]
    return moments


def _bessel_sum(term: int, m: int, y_num: int, den_shift: int, n_int: int, q: int,
                tail_bits: int, cap: int) -> tuple[int, int]:
    """(sum, largest |T|) of `bessel_j`'s scaled series from T_m on, in two loops.  The first
    runs while a term can still grow (m <= 1 or 2 y_num >= den, as for all nu+m <= 0), up to
    m = |nu| + x + 3 at most, and tracks max_abs.  Then nu+m > 0 and m (nu+m) grows, so every
    later ratio is below 1/2 and falling: max_abs is final, twice a term bounds the rest, and
    each term is one product and one floor division up to |T| <= stop.  A pass ends before
    m = |nu| + 2.2x + prec + 36, far below cap = 10 (prec + |nu| + x + 10), so `_X_BOUND`
    alone bounds its length."""
    acc, max_abs, den, y_neg = 0, 0, 0, -y_num
    while m <= 1 or 2 * y_num >= den:
        acc += term
        max_abs = max(max_abs, abs(term))
        m += 1
        den = (m * (n_int + m * q)) << den_shift
        term = term * y_neg // den
    low, stop = -(max_abs >> (tail_bits + 1)), max_abs >> (tail_bits + 1)
    while not low <= term <= stop:
        if m > cap:
            raise RuntimeError("Bessel series failed to converge")
        acc += term
        m += 1
        term = term * y_neg // ((m * (n_int + m * q)) << den_shift)
    return acc, max_abs


def bessel_j(nu, x, prec: int):
    """J_nu(x) at `prec` bits, within 2^-prec relative: `_bessel_sums`' one sum, rounded once."""
    (acc,), exp = _bessel_sums(nu, x, (0,), prec)
    return mp.make_mpf(from_man_exp(acc, exp, prec, _RND))


def _bessel_sums(nu, x, shifts, prec: int) -> tuple[list[int], int]:
    """([S_k for k in shifts], e), J_(nu+k)(x) = S_k 2^e within 2^-prec relative, by power series
    with a geometric tail bound; 0 < x <= `_X_BOUND`, nu taken exactly as N/q (`_ratio`).

    A sum starts at the first m off the poles of Gamma(nu+m+1) (m = -nu for a negative integer
    nu, else 0).  The orders share one start term, the held (x/2)^phi, phi = nu - floor(nu),
    times `_rgamma`'s 1/Gamma(nu+m+1), x at wp = prec + _GUARD_BITS bits; order nu + k's first
    term is that one times an exact ratio of integers, (x/2)^(floor(nu)+k+2m), its sign, 1/m!
    and the Gamma ratio over N + j q (`_gamma_ratio`), in fixed point to `top` = wp + 20 bits.
    With y = (x/2)^2 = Y 2^e at wp bits, each term is one integer step T <- -T Y q 2^e /
    (m (N + m q)), exact up to one floor, up to the first |T| <= 2^-(wp+1) max |T| past the
    last ratio >= 1/2 (`_bessel_sum`): the rest is below 2^-wp of the sum's scale, within
    2^-prec of |J| however small J is.  Where the terms cancel more than `_SPARE_BITS` of the
    guard (past x of about 16, or near a zero of J), it sums again, the scale and stop raised
    by as many bits or by x log2(e), whichever is more."""
    mp.prec  # binds the libmp names below when this is the first numeric call
    wp, (x_num, x_den) = prec + _GUARD_BITS, _ratio(x)
    if x_num <= 0:
        raise ValueError(f"x must be positive, got x={x}")
    if x_num > _X_BOUND * x_den:
        raise ValueError(f"Bessel sums need x <= {_X_BOUND}, "
                         f"got x={mp.nstr(mp.mpf(x_num) / x_den, 6)}")
    n_0, q = _ratio(nu)
    m_0 = -n_0 if q == 1 and n_0 < 0 else 0
    a_0, r = n_0 + (m_0 + 1) * q, n_0 % q  # nu + m_0 + 1 = a_0 / q, nu - floor(nu) = r/q
    half = mpf_shift(from_rational(x_num, x_den, wp, _RND), -1)
    (_, h_man, h_exp, _), (_, y_man, y_exp, _) = half, mpf_mul(half, half, wp, _RND)
    power = _held_value(("power", h_man, h_exp, r, q), wp,
                        lambda: mp.power(mp.make_mpf(half), mp.mpf(r) / q)._mpf_) if r else fone
    s_sign, s_man, s_exp, _ = mpf_mul(power, _rgamma(a_0, q, wp))
    y_num, den_shift = y_man * q << max(y_exp, 0), max(-y_exp, 0)
    pole, sums = (q - 1).bit_length() + 1 - min(r, q - r).bit_length() if q > 1 else 0, []
    for k in shifts:
        n_int = n_0 + k * q
        m = -n_int if q == 1 and n_int < 0 else 0
        (g_num, g_exp), (g_den, d_exp) = _gamma_ratio(a_0, q, k + m - m_0)
        e = n_0 // q + k + 2 * m  # the power of x/2 past the held (x/2)^phi
        num = (-1) ** (m + s_sign + (g_den < 0)) * s_man * g_num * h_man ** max(e, 0)
        den = abs(g_den) * h_man ** max(-e, 0) * factorial(m)
        # A negative non-integer nu = N/q comes closest to a pole at |nu + m| = d/q (d >= 1),
        # and dividing by that scales the later terms up by q/d: carry `pole` more bits.
        top = wp + 20 + (pole if n_int < 0 else 0)
        shift = top + den.bit_length() - num.bit_length()
        term = (num << max(shift, 0)) // (den << max(-shift, 0))
        cap, lost = 10 * (prec + abs(n_int) // q + x_num // x_den + 10), 0
        while True:
            acc, max_abs = _bessel_sum(term << lost, m, y_num, den_shift, n_int, q, wp + lost, cap)
            cancelled = max_abs.bit_length() - abs(acc).bit_length()
            if cancelled <= lost + _SPARE_BITS:
                break
            lost = max(cancelled, int(x_num / x_den / log(2)))
        sums.append((acc, s_exp + g_exp - d_exp + h_exp * e - shift - lost))
    low = min(exp for _, exp in sums)
    return [acc << exp - low for acc, exp in sums], low


# ---------------------------------------------------------------------------
# Numeric wave functions and their checks
# ---------------------------------------------------------------------------

def _wave_sums(z, eps, prec: int, shifts: dict) -> tuple:
    """(root, cos, {w: `_bessel_sums` at `prec` for w(z + k), k in shifts[w]}), w(z + k) =
    c s^k J_mu(2/eps), nu = z + 1/2: c = root/cos, s = -1, mu = -nu - k for f; c = 2 root, s = 1,
    mu = nu + k for g.  root = sqrt(pi/(2 eps)) and cos = cos(pi z), f only, are held raw mpfs
    at prec + _GUARD_BITS bits.  Errors within 2^-((prec+1)/2) of an integer nu."""
    (z_n, z_q), (e_n, e_q) = _ratio(z), _ratio(eps)
    if e_n <= 0:
        raise ValueError(f"need eps > 0, got eps={eps}")
    nu_n, nu_q, wp = 2 * z_n + z_q, 2 * z_q, prec + _GUARD_BITS
    if min(nu_n % nu_q, -nu_n % nu_q) << (prec + 1) // 2 < nu_q:
        raise ValueError(f"z + 1/2 is too close to an integer at z={z}; "
                         "perturb the evaluation point")
    sums = {w: _bessel_sums(Fraction(sign * nu_n, nu_q), Fraction(2 * e_q, e_n),
                            [sign * k for k in shifts[w]], prec)
            for w, sign in (("f", -1), ("g", 1)) if w in shifts}
    root = _held_value(("root", e_n, e_q), wp, lambda: mp.sqrt(mp.pi * e_q / (2 * e_n))._mpf_)
    cos = _held_value(("cos", z_n % nu_q, z_q), wp, lambda: mp.cospi(
        mp.mpf(z_n % nu_q) / z_q)._mpf_) if "f" in sums else None
    return root, cos, sums


def _wave(z, eps, prec: int, w: str):
    """w(z) at `prec` bits, within about 2^(1-prec) relative: its `_wave_sums` sum rounded once
    to prec bits, times c at prec + _GUARD_BITS bits, rounded to prec."""
    root, cos, sums = _wave_sums(z, eps, prec, {w: (0,)})
    ((acc,), exp), wp = sums[w], prec + _GUARD_BITS
    v = mpf_mul(root, from_man_exp(acc, exp, prec, _RND), wp, _RND)
    v = mpf_div(v, cos, wp, _RND) if w == "f" else mpf_shift(v, 1)
    return mp.make_mpf(mpf_pos(v, prec, _RND))


def numeric_f(z, eps, prec: int):
    """f(z) through its Bessel representation at `prec` bits."""
    return _wave(z, eps, prec, "f")


def numeric_g(z, eps, prec: int):
    """g(z) through its Bessel representation at `prec` bits."""
    return _wave(z, eps, prec, "g")


def numeric_f_g(z, eps, prec: int):
    """(f(z), g(z)) through the Bessel representations at `prec` bits."""
    return numeric_f(z, eps, prec), numeric_g(z, eps, prec)


def difference_equation_residual(z, eps, prec: int, which: str = "f"):
    """|w(z+1) + w(z-1) - eps (z+1/2) w(z)| for the numeric f or g: with w(z+k) = c s^k J_(mu_k)
    (`_wave_sums`), |c| |s (J_(mu_1) + J_(mu_-1)) - (P/Q) J_(mu_0)|, P/Q = eps (z+1/2) exact.
    The bracket is one integer over the sums at prec + _GUARD_BITS; times |c|, rounded once."""
    if which not in ("f", "g"):
        raise ValueError(f"which must be 'f' or 'g', got which={which!r}")
    (_, r_man, r_exp, _), cos, sums = _wave_sums(z, eps, prec + _GUARD_BITS, {which: (1, -1, 0)})
    ((up, dn, j_0), exp), (z_n, z_q), (e_n, e_q) = sums[which], _ratio(z), _ratio(eps)
    p, q, s = e_n * (2 * z_n + z_q), 2 * e_q * z_q, -1 if which == "f" else 1
    den, exp = (q * cos[1], exp + r_exp - cos[2]) if which == "f" else (q, exp + r_exp + 1)
    return _mpf(_quotient(r_man * abs(s * q * (up + dn) - p * j_0), exp, den, prec))


def numeric_wronskian(z, eps, prec: int):
    """f(z) g(z-1) - f(z-1) g(z), identically 1: with `_wave_sums`' waves, (2 root^2 / cos)
    (J_(-nu) J_(nu-1) + J_(-nu+1) J_nu), the bracket one integer, the quotient rounded once."""
    (_, r_man, r_exp, _), (c_sign, c_man, c_exp, _), sums = _wave_sums(
        z, eps, prec + _GUARD_BITS, {"f": (0, -1), "g": (0, -1)})
    ((f_0, f_1), f_exp), ((g_0, g_1), g_exp) = sums["f"], sums["g"]
    bracket, exp = f_0 * g_1 + f_1 * g_0, 2 * r_exp + f_exp + g_exp + 1 - c_exp
    man, exp = _quotient(r_man * r_man * abs(bracket), exp, c_man, prec)
    return _mpf((-man if (bracket < 0) != c_sign else man, exp))


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
    """The (mantissa, exponent) pair of man 2^exp / n, man >= 0, rounded once to
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
