"""The paper's numeric checks: Charlier polynomials, the numeric waves against
their difference equation, Wronskian and formal series, the scaling limit and
the ensemble averages, on the Gamma, Bessel, waves and rounding of `special`.

The polynomials are orthogonal with respect to the Poisson-type measure with
atoms at n + 1/2 (n >= 0) and weights e^(-a) a^n / n!; they are monic with
norm a^l * l!.  The numeric waves satisfy the same second-order difference
equation as the formal waves and have unit Wronskian, and the module validates
the scaling limit

    lim_L  pi_{L+l}(L + zeta; 1/(L eps^2)) / Gamma(L + zeta + 1/2)
         = eps^(zeta - l - 1/2) * J_{zeta - l - 1/2}(2/eps).

The polynomials come from the monic three-term recurrence (`charlier_poly`).
The explicit sum pi_l(x; a) = (-a)^l sum_i (-l)_i (1/2 - x)_i / i! (-1/a)^i is
the independent route, evaluated point by point (`charlier_value`) and
cross-checked there against the recurrence; the scaling check reads its values
from it instead of building the degree-L polynomial.

The orthogonality sums and the brute-force ensemble read one shared table of
atoms per (a, working precision), `_atoms`, kept for the most recent pair
only: the weights e^(-a) a^n / n! and each pi_l's coefficients and values
pi_l(n + 1/2), as (mantissa, exponent) pairs of Python ints grown on first
need.  Each step on them is one of `special`'s correctly rounded steps, so
every value is bit-identical to its mpf expression.  The tail bound's
pair-free parts are held in the table too.  `brute_force_expectation` sums its
L = 2 pairs as moment forms 2 (M0 M2 - M1^2), each moment one exact integer
sum rounded once (`_sum`).

All truncated sums carry explicit tail bounds; precision is always an
explicit argument, applied through a local working-precision context.  `mp` is
this module's own `special._Mpmath` stand-in, bound on its first numeric call.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .special import (
    _GUARD_BITS, _Mpmath, _as_fraction, _dyadic, _horner, _mpf, _quotient, _rounded, _sum,
    _to_mpf, _waves, bessel_j, gamma_real, numeric_f,
)
from .waves import normalized_quartet

mp = _Mpmath(globals())


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
# Numeric waves: residual, Wronskian and formal asymptotics
# ---------------------------------------------------------------------------

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
