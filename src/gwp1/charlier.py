"""The paper's numeric checks: Charlier polynomials, the numeric waves against their formal
series (their difference equation and Wronskian are `special`'s), the scaling limit and the
ensemble averages, on the Gamma, Bessel, waves and rounding of `special`.

The polynomials are monic and orthogonal for the Poisson-type measure with atoms at n + 1/2
(n >= 0) and weights e^(-a) a^n / n!, with norm a^l * l!.  The module validates the scaling limit

    lim_L  pi_{L+l}(L + zeta; 1/(L eps^2)) / Gamma(L + zeta + 1/2)
         = eps^(zeta - l - 1/2) * J_{zeta - l - 1/2}(2/eps).

The polynomials come from the monic three-term recurrence (`charlier_poly`).  The explicit sum
pi_l(x; a) = (-a)^l sum_i (-l)_i (1/2 - x)_i / i! (-1/a)^i, cross-checked against the
recurrence point by point (`charlier_value`), gives the scaling check its values and Heine's
determinant (`char_poly_expectation`) its exact entries.

Only the orthogonality sums read the shared table of atoms, `_atoms`, kept for the most
recent (a, working precision) only: the weights, each pi_l's coefficients and values
pi_l(n + 1/2) and the tail bound's pair-free parts, as (mantissa, exponent) pairs of ints grown
on first need.  Each step on them is one of `special`'s correctly rounded steps, so every value
is bit-identical to its mpf expression.  The brute-force ensemble average, like Heine's
determinant, is one exact ratio rounded once: of the truncated atoms' integer moments.

All truncated sums carry explicit tail bounds; precision is always an explicit argument.  `mp`
is this module's own `special._Mpmath` stand-in, bound on its first numeric call.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import NamedTuple

from .special import (
    _GUARD_BITS, _Mpmath, _as_fraction, _dyadic, _horner, _moments, _mpf, _quotient, _ratio,
    _rounded, _to_mpf, bessel_j, difference_equation_residual, gamma_real, numeric_f,
    numeric_wronskian,
)
from .waves import normalized_quartet

mp = _Mpmath(globals())


# ---------------------------------------------------------------------------
# Charlier polynomials (exact)
# ---------------------------------------------------------------------------

def _positive(a) -> Fraction:
    """The measure parameter a as a Fraction; a <= 0 is refused."""
    a = _as_fraction(a)
    if a <= 0:
        raise ValueError(f"parameter a must be positive, got a={a}")
    return a


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
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got ell={ell}")
    a = _positive(a)
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
    x = _as_fraction(x)
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got ell={ell}")
    a = _positive(a)
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
    """The orthogonality sums' atoms x_n = n + 1/2 of one (a, wp), grown one atom at a time.

    `weights[n]` = e^(-a) a^n / n!, `coefficients[l]` (pi_l's), `values[l][n]` = pi_l(x_n) and
    `bounds[l, n]` = |pi_l|(x_n) are (mantissa, exponent) pairs at wp bits, each rounded as the
    mpf steps weight *= a/n and acc*x + c round it (`_quotient`, `_rounded`), so a sum read from
    the table is bit-identical to one evaluated afresh.  The weights reach one atom past the
    longest row of values.  The stop test's mpf parts, `growth[n]` = (a/(n+1), 1 + 1/(n + 1/2))
    and `stops[n, deg]` = 1 - r (or 0 while its test fails), and the bounds are held once asked.
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


_A_BOUND = 10_000  # the largest a summed: cold orthogonality at 768 bits, 1.9 s (2-vCPU x86-64)


@lru_cache(maxsize=1)
def _atoms(a: Fraction, wp: int) -> _Atoms:
    """The atom table of the most recent (a, wp) only, read by the orthogonality sums alone:
    they pair all their degrees at one a before moving on, and one table keeps memory bounded."""
    return _Atoms(a, wp)


def charlier_orthogonality_sum(ell: int, ellp: int, a, tol, prec: int = 128):
    """(sum, target): the pairing of pi_l and pi_l' against the atom weights, alongside the
    exact norm a^l l! delta_{l,l'}.

    a above `_A_BOUND` is refused before any atom.  The truncation index is raised until a
    geometric bound certifies the discarded tail below tol/4; failing that is an error.  Weights
    and polynomial values are read from `_atoms(a, wp)`, so each atom costs three integer steps
    at wp, acc += (p q) w, each rounded to nearest-even by `_rounded` as the libmp step it is.

    The test at atom n needs a/(n+1) < 1/2, n >= floor(2a), and from there on each weight is at
    most half the one before.  From n >= 1 on, x >= 3/2 and the abs-coefficient Horner value
    |pi_l|(x) of a monic pi_l is >= x^l >= 1, so with 1/(1 - r) >= 1 the bound is
    >= |pi_l| |pi_l'| w >= w, and it can only pass once w < tol/4.  So the first
    n >= max(1, floor(2a)) with w < tol/2 (the 2 absorbs rounding) is found once, the atoms
    before it are summed with no test, and from it on the test is skipped wherever the
    exponents alone give |pi_l| |pi_l'| w >= 2 tol/4.  Neither moves the stopping index.
    """
    if ell < 0 or ellp < 0:
        raise ValueError(f"degrees must be >= 0, got l={ell}, l'={ellp}")
    a = _positive(a)
    if a > _A_BOUND:
        raise ValueError(f"parameter a must be at most {_A_BOUND}, got a={a}")
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
# Numeric waves against the formal series
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
    """Compare (eps*z/e)^(-z) f(z) against the truncated formal wave series sum_d h_d(eps) z^d,
    h = `normalized_quartet(order)`[0], at z and eps rounded to prec + _GUARD_BITS bits: the
    sum is one exact integer ratio over z_n^order e_n^-lo e_d^hi, z = z_n/z_d and eps = e_n/e_d
    read exactly (`_ratio`), d <= 0 and lo <= e <= hi the eps powers, and is rounded once."""
    wp = prec + _GUARD_BITS
    with mp.workprec(wp):
        z_m = _to_mpf(z)
        if z_m <= 0:
            raise ValueError(f"the formal series expands at z -> +oo: need z > 0, got z={z}")
        eps_m = _to_mpf(eps)
        numeric = numeric_f(z_m, eps_m, wp) * mp.power(eps_m * z_m / mp.e, -z_m)
        h, (z_n, z_d), (e_n, e_d) = normalized_quartet(order)[0], _ratio(z_m), _ratio(eps_m)
        den = lcm(*(c.den for c in h.c.values()))
        lo, hi = min(exps := [0] + [e for c in h.c.values() for e in c.num]), max(exps)
        total = sum(v * (den // c.den) * z_n ** (order + d) * z_d**-d * e_n ** (e - lo)
                    * e_d ** (hi - e) for d, c in h.c.items() for e, v in c.num.items())
        formal = mp.make_mpf(from_rational(total, den * z_n**order * e_n**-lo * e_d**hi, wp, _RND))
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
        target = mp.power(eps_m, _to_mpf(mu)) * bessel_j(mu, 2 / eps_q, prec + _GUARD_BITS)
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

def _det(rows: list[list[Fraction]]) -> Fraction:
    """The determinant by Fraction elimination: the first row i with a nonzero first entry is
    the pivot, moved to the top past i rows (sign (-1)^i), the others keeping their order."""
    det = Fraction(1)
    while rows:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return Fraction(0)
        pivot, rows = rows[i], rows[:i] + rows[i + 1:]
        det *= (-1) ** i * pivot[0]
        rest = [y / pivot[0] for y in pivot[1:]]
        rows = [[x - row[0] * y for x, y in zip(row[1:], rest)] for row in rows]
    return det


def char_poly_expectation(L: int, a, us, prec: int = 128):
    """det( pi_{L+k-1}(u_j) )_{j,k=1..N} / prod_{j<k} (u_k - u_j), Heine's formula, exact.

    Each u is the mpf it converts to at prec + _GUARD_BITS bits, taken exactly (`_ratio`); each
    entry is one `charlier_value`, and det / Vandermonde (`_det`) is rounded once to prec bits.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got L={L}")
    with mp.workprec(prec + _GUARD_BITS):
        us_m = [mp.mpf(u) for u in us]
        n = len(us_m)
        if n < 1:
            raise ValueError("need at least one evaluation point")
        if len(set(us_m)) < n:
            raise ValueError("evaluation points must be distinct, got us="
                             f"{[mp.nstr(u, 17) for u in us_m]}")
    xs = [Fraction(*_ratio(u)) for u in us_m]
    val = _det([[charlier_value(L + k, a, x) for k in range(n)] for x in xs]) / prod(
        xs[k] - xs[j] for j in range(n) for k in range(j + 1, n))
    return mp.make_mpf(from_rational(val.numerator, val.denominator, prec, _RND))


def brute_force_expectation(L: int, a, us, n_max: int, prec: int = 128):
    """Direct ensemble average of prod_j det(u_j - M), L <= 2, over the atoms x_n = n + 1/2,
    n <= N = n_max, as one exact ratio rounded once to prec bits.

    With a = p/q the weights are W_n = p^n q^(N-n) N!/n!, e^(-a) q^N N! cancelling.  Each u is
    its mpf at prec + _GUARD_BITS bits, taken exactly (`_ratio`); over their common power-of-two
    denominator s, V_n = W_n (2s)^J prod_j (u_j - x_n) = W_n sum_i c_i n^i has the moments
    M_k = sum_i c_i S_(i+k) (`_moments`).  L = 1 is M_0 / S_0, L = 2 the pair-sum ratio
    (M0 M2 - M1^2) / (S0 S2 - S1^2).  The last shell, |v_N| + w_N for L = 1 and twice the row
    2 sum_j (|v_N v_j| + w_N w_j)(N - j)^2 for L = 2, is exact too: past the largest u_j,
    |V_n| = (-1)^J V_n, so the row's absolute moments are (-1)^J M_k corrected at the atoms
    below.  Twice the shell must lie below 2^(-prec/2) of the normalizer, or n_max is refused.
    """
    if L not in (1, 2):
        raise ValueError(f"brute force supports L = 1 or 2 only, got L={L}")
    a = _positive(a)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1 (two atoms or more), got {n_max}")
    p, q = a.numerator, a.denominator
    if 4 * p >= (n_max + 1) * q:
        raise ValueError("n_max too small for a convergent tail bound")
    with mp.workprec(prec + _GUARD_BITS):
        points = [_ratio(mp.mpf(u)) for u in us]
    if not points:
        raise ValueError("need at least one evaluation point")
    s = max(den for _, den in points)
    roots = [2 * num * (s // den) - s for num, den in points]  # 2s (u_j - 1/2)
    c = [1]  # prod_j (root_j - 2sn) = sum_i c_i n^i
    for r in roots:
        c = [r * ci - 2 * s * lower for ci, lower in zip(c + [0], [0] + c)]
    S = _moments(p, q, n_max, len(c) + 2 * L - 2)
    M = [sum(ci * S[i + k] for i, ci in enumerate(c)) for k in range(2 * L - 1)]
    scale, w_last = (2 * s) ** len(roots), p**n_max
    v_last = abs(w_last * prod(r - 2 * s * n_max for r in roots))
    if L == 1:
        num, den = M[0], scale * S[0]
        shell = v_last + scale * w_last
    else:
        num, den = M[0] * M[2] - M[1] ** 2, scale**2 * (S[0] * S[2] - S[1] ** 2)
        sign, w = (-1) ** len(roots), q**n_max * factorial(n_max)
        row = sign * (n_max**2 * M[0] - 2 * n_max * M[1] + M[2])  # sum_n |V_n| (N - n)^2
        for n in range(min(-(-max(roots) // (2 * s)), n_max + 1)):
            v = w * prod(r - 2 * s * n for r in roots)
            row += (abs(v) - sign * v) * (n_max - n) ** 2
            w = w * p // (q * (n + 1))
        shell = v_last * row + scale**2 * w_last * (n_max**2 * S[0] - 2 * n_max * S[1] + S[2])
    # ratio-1/4 weight decay makes each further shell at most ~half the
    # previous one even against polynomial growth, so 2*shell bounds the tail
    if shell << -(-prec // 2) + 1 > den:
        raise ValueError("truncation tail too large; increase n_max")
    man, exp = _quotient(abs(num), 0, den, prec)
    return _mpf((-man if num < 0 else man, exp))
