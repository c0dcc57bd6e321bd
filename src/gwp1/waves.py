"""Formal wave solutions of the difference equation w(z+1) + w(z-1) = eps*(z+1/2)*w(z).

The two normalized solutions are written (eps*z/e)^(sigma*z) * h(z) with
h = 1 + O(1/z).  For sigma=+1 the scalar object is the f-type solution itself;
for sigma=-1 the normalized object is the g-type solution evaluated at z-1,
whose scalar equation carries eps*(z-1/2) instead (the matrix solution places
it in the shifted second row).  All exponential and square-root prefactors are
stripped: the module works with the plain series A, Atilde, B, Btilde whose
pairwise products are prefactor-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .epslaurent import EpsLaurent, EPS, EPS_INV
from .zseries import ZSeries, log1p_inv_z


@dataclass(frozen=True)
class WaveExpansion:
    """(eps*z/e)^(sigma*z) * h(z), with h a plain truncated series."""

    sigma: int
    h: ZSeries


@dataclass(frozen=True)
class RMatrix:
    """2x2 projector-valued series: rank one, trace 1, constant term E11."""

    e11: ZSeries
    e12: ZSeries
    e21: ZSeries
    e22: ZSeries
    order: int

    def trace(self) -> ZSeries:
        return self.e11 + self.e22

    def det(self) -> ZSeries:
        return self.e11 * self.e22 - self.e12 * self.e21

    def square(self) -> "RMatrix":
        return RMatrix(
            self.e11 * self.e11 + self.e12 * self.e21,
            self.e11 * self.e12 + self.e12 * self.e22,
            self.e21 * self.e11 + self.e22 * self.e21,
            self.e21 * self.e12 + self.e22 * self.e22,
            self.order - 1,
        )


@lru_cache(maxsize=None)
def step_exponent(order: int) -> ZSeries:
    """Series of (z+1)*log(1+1/z) - 1, the exponent of the one-step prefactor ratio."""
    lg = log1p_inv_z(order + 1)
    s = lg.mul_zpow(1) + lg.truncate(order)
    return (s - ZSeries.const(1, order)).truncate(order)


@lru_cache(maxsize=None)
def step_factor(order: int) -> ZSeries:
    """r(z) = eps*z*exp((z+1)log(1+1/z)-1), so (eps(z+1)/e)^(z+1) = (eps z/e)^z * r(z)."""
    return step_exponent(order + 1).exp().truncate(order + 1).mul_zpow(1).scale(EPS)


def _lam(sigma: int, h: ZSeries, cp: ZSeries, cm: ZSeries, drift: ZSeries) -> ZSeries:
    """Difference-equation operator applied to h, prefactors already divided out."""
    return cp * h.shift(1) + cm * h.shift(-1) - drift * h


def _operator_pieces(sigma: int, order: int):
    r = step_factor(order + 2)  # top degree 1
    r_down = r.shift(-1)  # eps*(z-1)*E(z-1)
    if sigma == +1:
        cp = r
        cm = r_down.invert_unit_leading()
        half = Fraction(1, 2)
    else:
        cp = r.invert_unit_leading()
        cm = r_down
        half = Fraction(-1, 2)
    drift = ZSeries({1: EPS, 0: EpsLaurent.mono(1, half)}, top=1, order=order + 2)
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
        raise ValueError("order must be >= 1")
    cp, cm, drift = _operator_pieces(sigma, order)
    h = ZSeries.const(1, order + 2)
    resid = _lam(sigma, h, cp, cm, drift)
    for m in range(1, order + 1):
        basis = _lam(sigma, ZSeries.zpow(-m, order + 2), cp, cm, drift)
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
    return _lam(w.sigma, h, cp, cm, drift)


def wave_shift(w: WaveExpansion, c: int) -> WaveExpansion:
    """Re-express z -> (eps(z+c)/e)^(sigma(z+c)) h(z+c) on the base prefactor.

    Composed from single steps; each step multiplies or divides by the one-step
    prefactor ratio r(z) = eps*z*exp(...), raising or lowering the top degree.
    """
    h = w.h
    steps = abs(c)
    for _ in range(steps):
        if c > 0:
            r = step_factor(h.order + 1)
            if w.sigma == +1:
                h = r * h.shift(1)
            else:
                h = r.invert_unit_leading() * h.shift(1)
        else:
            r = step_factor(h.order + 1).shift(-1)
            if w.sigma == +1:
                h = r.invert_unit_leading() * h.shift(-1)
            else:
                h = r * h.shift(-1)
    return WaveExpansion(w.sigma, h)


# ---------------------------------------------------------------------------
# Independent oracle for the sigma=-1 series via Stirling's expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    # B_n from sum_{k=0}^{n} C(n+1, k) B_k = 0
    s = Fraction(0)
    for k in range(n):
        s += comb(n + 1, k) * bernoulli_number(k)
    return -s / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1))


def stirling_g_oracle(order: int) -> WaveExpansion:
    """sigma=-1 series computed from the Bessel sum plus Stirling's Gamma expansion.

    g(z-1) = sqrt(2*pi/eps) * sum_m (-1)^m eps^(-(z-1/2)-2m) / (m! Gamma(z+1/2+m));
    the m-th term lands at z^(-m) after normalizing by (eps*z/e)^(-z).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    wo = order + 1
    total = ZSeries.zero(order)
    for m in range(order + 1):
        a = Fraction(2 * m + 1, 2)  # Gamma argument offset
        expo = ZSeries(
            {
                -k: EpsLaurent.const(
                    Fraction((-1) ** k) * bernoulli_poly(k + 1, a) / (k * (k + 1))
                )
                for k in range(1, wo + 1)
            },
            top=-1,
            order=wo,
        )
        piece = expo.exp().mul_zpow(-m)
        scale = EpsLaurent.mono(-2 * m, Fraction((-1) ** m, factorial(m)))
        total = total + ZSeries(piece.c, top=piece.top, order=order).scale(scale)
    return WaveExpansion(-1, ZSeries(total.c, top=0, order=order))


# ---------------------------------------------------------------------------
# Normalized quartet and derived objects
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def normalized_quartet(order: int):
    """(A, Atilde, B, Btilde): the four prefactor-stripped series at one order.

    A(z): f-type solution; Atilde: f at z-1 on the same base; B: g-type at z-1;
    Btilde: g at z, i.e. B shifted one step up.  Atilde and Btilde have top
    degree -1 with leading coefficient 1/(eps*z).
    """
    wa = solve_formal_wave(+1, order + 2)
    wb = solve_formal_wave(-1, order + 2)
    a = wa.h.truncate(order)
    b = wb.h.truncate(order)
    at = wave_shift(wa, -1).h.truncate(order)
    bt = wave_shift(wb, +1).h.truncate(order)
    return a, at, b, bt


def r_matrix(order: int) -> RMatrix:
    """Rank-one projector column(B, Btilde) * row(A, -Atilde)."""
    a, at, b, bt = normalized_quartet(order + 1)
    return RMatrix(b * a, -(b * at), bt * a, -(bt * at), order)


def s1_series(order: int) -> ZSeries:
    """One-point series: (1/eps) * (A*B' - Atilde*Btilde').

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
