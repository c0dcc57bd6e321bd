"""Formal wave solutions of the difference equation w(z+1) + w(z-1) = eps*(z+1/2)*w(z).

The two normalized solutions are written (eps*z/e)^(sigma*z) * h(z) with
h = 1 + O(1/z).  For sigma=+1 the scalar object is the f-type solution itself;
for sigma=-1 the normalized object is the g-type solution evaluated at z-1,
whose scalar equation carries eps*(z-1/2) instead (the matrix solution places
it in the shifted second row).  All exponential and square-root prefactors are
stripped: the module works with the plain series A, Atilde, B, Btilde whose
pairwise products are prefactor-free.

Closed form.  With nu = z + 1/2 and x = 2/eps the equation is the Bessel
recurrence J_(nu-1)(x) + J_(nu+1)(x) = (2 nu / x) J_nu(x), and the waves are
Bessel power series (g(z) = sqrt(2 pi/eps) J_(z+1/2)(2/eps)).  Writing
Gamma(z+1/2) = sqrt(2 pi) (z/e)^z S(z) with Stirling's series

    S(z) = exp sum_(k>=1) (-1)^(k+1) B_(k+1)(1/2) / (k(k+1)) z^(-k),
    B_n(1/2) = (2^(1-n) - 1) B_n,

A is S times a sum of Gamma ratios, and the other three follow from it:

    A = S sum_m eps^(-2m) / m! prod_(i=1..m) (z-i+1/2)^(-1),    Atilde = -(eps^2/2) dA/deps,

as Atilde's eps^(1-2m) term is m times A's eps^(-2m) term (Atilde = dA/dx).  Since log S is odd
in 1/z, S^(-1)(z) = S(-z), so B and Btilde follow by z -> -z: B(z) = A(-z) and Btilde(z) =
-Atilde(-z).  In w = 1/z the products of A nest: with Q_0 = S and r_m = m - 1/2, Q_m =
w Q_(m-1) / (1 - r_m w), i.e. Q_m[j] = Q_(m-1)[j-1] + r_m Q_m[j-1], feeding eps^(-2m) of A.
Row j needs only the Stirling coefficients to w^j, so one table of integer rows of A, one gcd
per Stirling coefficient, grows only as far as it is read.  The same table holds the kernel's
affine coordinates as integer numerators over one denominator per diagonal; `affine_diagonals`,
their one reader, hands out the integers of the diagonals asked for over one shared denominator.

The triangular solve `solve_formal_wave` (the ansatz substituted into the
equation and solved order by order) is kept as the independent oracle, with
`wave_residual`; `wave_shift` re-bases a wave by whole steps in z, which
gives the oracle its tilde series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, perm
from typing import NamedTuple

from .epslaurent import EpsLaurent, EPS, EPS_INV
from .zseries import ZSeries, log1p_inv_z


class WaveExpansion(NamedTuple):
    """(eps*z/e)^(sigma*z) * h(z), with h a plain truncated series."""

    sigma: int
    h: ZSeries


# ---------------------------------------------------------------------------
# Triangular solve (the oracle) and whole-step shifts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def step_factor(order: int, power: int) -> ZSeries:
    """r(z)^power, power = +-1: r(z) = eps*z*exp(x), x = (z+1)log(1+1/z) - 1, so
    (eps(z+1)/e)^(z+1) = (eps z/e)^z * r(z) and 1/r = (eps*z)^(-1) exp(-x)."""
    lg = log1p_inv_z(order + 2)
    x = (lg.mul_zpow(1) + lg.truncate(order + 1) - ZSeries.const(1, order + 1)).truncate(order + 1)
    e = (x if power == 1 else -x).exp().truncate(order + 1)
    return e.mul_zpow(power).scale(EPS if power == 1 else EPS_INV)


def _lam(h: ZSeries, cp: ZSeries, cm: ZSeries, drift: ZSeries) -> ZSeries:
    """Difference-equation operator applied to h, prefactors already divided out."""
    return cp * h.shift(1) + cm * h.shift(-1) - drift * h


def _operator_pieces(sigma: int, order: int):
    cp = step_factor(order + 2, sigma)
    cm = step_factor(order + 2, -sigma).shift(-1)  # r(z-1)^(-sigma)
    drift = ZSeries({1: EPS, 0: EpsLaurent.mono(1, Fraction(sigma, 2))}, top=1, order=order + 2)
    return cp, cm, drift


@lru_cache(maxsize=None)
def solve_formal_wave(sigma: int, order: int) -> WaveExpansion:
    """Unique normalized formal solution, solved order by order.

    The substituted ansatz yields a triangular system whose pivot at step m is
    the unit monomial sigma*(-m)*eps; each division is checked exact.
    """
    if sigma not in (+1, -1):
        raise ValueError("sigma must be +1 or -1")
    if order < 1:
        raise ValueError(f"order must be >= 1, got order={order}")
    cp, cm, drift = _operator_pieces(sigma, order)
    h = ZSeries.const(1, order + 2)
    resid = _lam(h, cp, cm, drift)
    for m in range(1, order + 1):
        basis = _lam(ZSeries.zpow(-m, order + 2), cp, cm, drift)
        # locate the pivot: top nonzero coefficient of the basis image
        pivot_deg = None
        for d in range(basis.top, -basis.order - 1, -1):
            if basis.coeff(d):
                pivot_deg = d
                break
        if pivot_deg is None:
            raise RuntimeError("degenerate triangular system")
        for d in range(resid.top, pivot_deg, -1):
            if resid.coeff(d):
                raise RuntimeError("inconsistent triangular system")
        a_m = (-resid.coeff(pivot_deg)).div_exact(basis.coeff(pivot_deg))
        if a_m:
            h = h + ZSeries.zpow(-m, order + 2, a_m)
            resid = resid + basis.scale(a_m)
    return WaveExpansion(sigma, h.truncate(order))


def wave_residual(w: WaveExpansion, order: int) -> ZSeries:
    """Substitute the wave back into its difference equation; zero on the window."""
    cp, cm, drift = _operator_pieces(w.sigma, order)
    h = ZSeries(w.h.c, top=w.h.top, order=min(w.h.order, order + 2))
    return _lam(h, cp, cm, drift)


def wave_shift(w: WaveExpansion, c: int) -> WaveExpansion:
    """Re-express z -> (eps(z+c)/e)^(sigma(z+c)) h(z+c) on the base prefactor.

    Composed from single steps; a step up multiplies by r(z)^sigma, a step down by
    r(z-1)^(-sigma), r(z) = eps*z*exp(...) the one-step prefactor ratio (`step_factor`).
    """
    h, d = w.h, 1 if c > 0 else -1
    for _ in range(abs(c)):
        h = step_factor(h.order + 1, w.sigma * d).shift(min(d, 0)) * h.shift(d)
    return WaveExpansion(w.sigma, h)


# ---------------------------------------------------------------------------
# Closed-form quartet and derived objects
# ---------------------------------------------------------------------------

def bernoulli_number(n: int) -> Fraction:
    """B_n, with B_1 = -1/2 and B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)), T_m the
    tangent number of the row table (`_Rows.tangents`)."""
    if n < 2 or n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(1 if n == 0 else 0)
    m = n // 2
    return Fraction((-1) ** (m - 1) * n * _ROWS.tangents(m)[m], 4**m * (4**m - 1))


class _Rows:
    """The row table: numerator dicts {eps power: int} `a[j]` of A, the one stored series, at
    z^(-j) over `dens[j]`, each row in lowest terms, the state that the next row extends, and the
    affine `diagonals`, integer numerators over one denominator each.  Rows grow on the first
    read of a diagonal that needs them, or to a whole quartet's order."""

    def __init__(self):
        self.t, self.kl, self.big_d, self.sigma = [0], {}, [1], [1]  # t[m] = T_m, t[0] = 0
        self.q, self.big_l, self.a, self.dens = [], 1, [], []
        self.diagonals: dict[int, tuple[dict[int, dict[int, int]], int]] = {}

    def tangents(self, m: int) -> list[int]:
        """T_0..T_m, by Brent and Harvey's in-place integer pass (arXiv:1108.0286)."""
        if len(self.t) <= m:
            self.t = t = [0] + [factorial(k) for k in range(m)]  # t_k = (k-1)!, the first pass
            for k in range(2, m + 1):
                for j in range(k, m + 1):
                    t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        return self.t

    def grow(self, order: int) -> None:
        """Append rows len(dens)..order.  n s_n = sum_k k l_k s_(n-k), odd k, runs on sigma_n
        = s_n D_n n!, D_n = lcm_k(den(k l_k) D_(n-k)): sigma_n = sum_k k l_k D_n/D_(n-k)
        (n-1)!/(n-k)! sigma_(n-k), each k l_k = (-1)^m (2^k - 1) T_m / (2^(2k+1) (2^(k+1) - 1)),
        m = (k+1)/2, one reduced integer pair.  With L_j = lcm den(s_0..s_j), row j holds
        q_m[j] = Q_m[j] L_j 2^j = (L_j/L_(j-1)) (2 q_(m-1)[j-1] + (2m-1) q_m[j-1]) times j!/m!
        over L_j 2^j j!, divided by their gcd, which also reduces Atilde's row (m times A's)."""
        kl, big_d, sigma = self.kl, self.big_d, self.sigma
        t = self.tangents((order + 1) // 2)  # one pass serves every T_m below
        for j in range(len(self.dens), order + 1):
            if j % 2:
                m = (j + 1) // 2
                num, den = (-1) ** m * ((1 << j) - 1) * t[m], ((2 << j) - 1) << (2 * j + 1)
                kl[j] = (num // (g := gcd(num, den)), den // g)
            if j:
                terms = [(kl[k][0] * perm(j - 1, k - 1), kl[k][1] * big_d[j - k], sigma[j - k])
                         for k in range(1, j + 1, 2)]
                big_d.append(d := lcm(*(den for _, den, _ in terms)))
                sigma.append(sum(num * (d // den) * s for num, den, s in terms))
            d = big_d[j] * factorial(j)  # s_j = sigma_j / d
            rho = lcm(self.big_l, d // gcd(sigma[j], d)) // self.big_l
            self.big_l *= rho
            q = self.q + [0]  # Q_j[j-1] = 0
            self.q = q = [sigma[j] * self.big_l // d << j] + [
                rho * (2 * q[m - 1] + (2 * m - 1) * q[m]) for m in range(1, j + 1)]
            a = [perm(j, j - m) * v for m, v in enumerate(q)]
            den = self.big_l * factorial(j) << j
            g = gcd(den, *a)
            self.a.append({-2 * m: v // g for m, v in enumerate(a)})
            self.dens.append(den // g)

    def diagonal(self, s: int) -> tuple[dict[int, dict[int, int]], int]:
        """({x: numerators {eps power: int} of a(x, s - x)}, their one denominator), summed on
        the first read of s from K[-i, -j] (`affine_diagonals`), one product per pair of A
        numerators.  Every exponent is <= 0, which the genus floor of `invariants._cycle_sum`
        relies on, so a positive one raises RuntimeError."""
        if s not in self.diagonals:
            if len(dens := self.dens) < -s:
                self.grow(-s - 1)
            # a(-1-j, s+1+j) = a(-j, s+j) + K[-j, j+1+s], j = 0, ..., -s-2
            den = lcm(*(dens[j] * dens[-s - 1 - j] for j in range(-s - 1)))
            entries, acc = {}, {}
            for j in range(-s - 1):
                f = (-1) ** (-s - 1 - j) * (den // (dens[j] * dens[-s - 1 - j]))
                for e1, n1 in self.a[j].items():
                    n1 *= f
                    for e2, n2 in self.a[-s - 1 - j].items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + (p := n1 * n2)
                        if e1 and e2:  # Atilde Atilde: m m' p at eps^(e1+e2+2)
                            acc[e1 + e2 + 2] = acc.get(e1 + e2 + 2, 0) + e1 * e2 // 4 * p
                entries[-1 - j] = dict(acc)
            if (top := max(acc, default=0)) > 0:
                raise RuntimeError(f"diagonal {s} holds eps^{top}; no row power may exceed 0")
            self.diagonals[s] = entries, den
        return self.diagonals[s]


_ROWS = _Rows()


@lru_cache(maxsize=None)
def normalized_quartet(order: int):
    """(A, Atilde, B, Btilde): the four prefactor-stripped series at one order.

    A(z): f-type solution; Atilde: f at z-1 on the same base; B: g-type at z-1;
    Btilde: g at z, i.e. B shifted one step up.  Atilde and Btilde have top
    degree -1 with leading coefficient 1/(eps*z).  Built from A's rows, Atilde as
    -(eps^2/2) dA/deps.
    """
    if len(_ROWS.dens) <= order:
        _ROWS.grow(order)
    a, dens = _ROWS.a, _ROWS.dens
    at = [{e + 1: -e // 2 * v for e, v in a[j].items() if e} for j in range(order + 1)]
    pa, pat = ({-j: EpsLaurent.from_ints(u[j], dens[j]) for j in range(order + 1)} for u in (a, at))
    return (ZSeries(pa, 0, order), ZSeries(pat, -1, order),  # B(z) = A(-z), Btilde(z) = -Atilde(-z)
            ZSeries({d: -v if d % 2 else v for d, v in pa.items()}, 0, order),
            ZSeries({d: v if d % 2 else -v for d, v in pat.items()}, -1, order))


def affine_diagonals(lo: int, hi: int):
    """({s: {x: numerators {eps power: int} of a(x, s - x)}}, D) for lo <= s <= min(hi, -2), D
    the lcm of their denominators: the one reader of the affine table.  a(x, y) are the
    coefficients of a(z, w) = (K(z, w) - 1)/(z - w), K(z, w) = A(z)B(w) - Atilde(z)Btilde(w), a
    series in 1/z and 1/w as K(z, z) = 1 (Zhou's affine coordinates, arXiv:1306.5429), zero
    unless x, y <= -1.  From (z - w) a = K - 1, a(x, y) = a(x+1, y-1) + K[x+1, y] is a running
    sum along x + y = s that reads K[i, j] on i + j = s + 1: A's rows to -s - 1, which `_ROWS`
    grows on demand, so no order bounds a read.  As B(z) = A(-z) and Atilde = -(eps^2/2) dA/deps,
    K[-i, -j] = (-1)^j sum alpha_m alpha'_m' (1 + m m' eps^2) eps^(-2(m+m')) over dens[i] dens[j],
    alpha and alpha' from A's rows i and j.  Each diagonal is summed once per process
    (`_Rows.diagonal`), over the lcm of those products, and scaled to D unless that lcm is D."""
    read = [(s, *_ROWS.diagonal(s)) for s in range(lo, min(hi, -2) + 1)]  # deepest first
    den = lcm(*(d for _, _, d in read))
    out = {}
    for s, entries, d in read:
        f = den // d
        out[s] = entries if f == 1 else {x: {e: f * v for e, v in num.items()}
                                         for x, num in entries.items()}
    return out, den


def s1_series(order: int) -> ZSeries:
    """One-point series (1/eps) * (A*B' - Atilde*Btilde') = -a(z, z)/eps.

    The coefficient of log(eps*z) in the derivative pairing, 1 + Atilde*Btilde
    - A*B, must vanish identically (the unit-Wronskian cancellation); a
    nonzero log-part is a hard error.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    a, at, b, bt = normalized_quartet(order + 2)
    plain = a * b.deriv() - at * bt.deriv()
    logpart = ZSeries.const(1, order) + at * bt - a * b
    if not logpart.is_zero():
        raise RuntimeError("log(eps*z) part failed to cancel; upstream inconsistency")
    s1 = plain.scale(EPS_INV)
    return ZSeries(s1.c, top=s1.top, order=order + 1)
