"""Truncated Laurent series in one variable z with EpsLaurent coefficients.

A ZSeries stores coefficients for z^d with -order <= d <= top; reading a
coefficient below -order raises WindowError instead of silently returning
garbage.  Every operation recomputes the largest provably valid window.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .epslaurent import EpsLaurent, ZERO


class WindowError(Exception):
    """Requested a coefficient outside the valid truncation window."""


class ZSeries:
    __slots__ = ("top", "order", "c")

    def __init__(self, coeffs: dict[int, EpsLaurent], top: int, order: int):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got order={order}")
        self.top = top
        self.order = order
        self.c = {d: v for d, v in coeffs.items() if v and -order <= d <= top}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(x, order: int) -> "ZSeries":
        return ZSeries({0: EpsLaurent.coerce(x)}, top=0, order=order)

    @staticmethod
    def zpow(k: int, order: int, coeff=1) -> "ZSeries":
        return ZSeries({k: EpsLaurent.coerce(coeff)}, top=max(k, 0), order=order)

    @staticmethod
    def zero(order: int) -> "ZSeries":
        return ZSeries({}, top=0, order=order)

    # -- access -------------------------------------------------------------

    def coeff(self, d: int) -> EpsLaurent:
        if d < -self.order:
            raise WindowError(
                f"coefficient of z^{d} outside valid window [-{self.order}, {self.top}]"
            )
        return self.c.get(d, ZERO)

    def is_zero(self) -> bool:
        return not self.c

    def eq_on_window(self, other: "ZSeries") -> bool:
        order = min(self.order, other.order)
        top = max(self.top, other.top)
        for d in range(-order, top + 1):
            if self.c.get(d, ZERO) != other.c.get(d, ZERO):
                return False
        return True

    def __repr__(self) -> str:
        parts = [f"({self.c[d]})*z^{d}" for d in sorted(self.c, reverse=True)]
        body = " + ".join(parts) if parts else "0"
        return f"ZSeries[{body} ; window [-{self.order},{self.top}]]"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ZSeries") -> "ZSeries":
        order = min(self.order, other.order)
        out = dict(self.c)
        for d, v in other.c.items():
            out[d] = out[d] + v if d in out else v
        return ZSeries(out, top=max(self.top, other.top), order=order)

    def __neg__(self) -> "ZSeries":
        return ZSeries({d: -v for d, v in self.c.items()}, self.top, self.order)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        # valid window of the product: coefficient at d needs all splits
        # j + (d - j) with j within self's window and d - j within other's
        order = min(self.order - other.top, other.order - self.top)
        if order < 0:
            raise WindowError("product has an empty valid window; raise the truncation")
        top = self.top + other.top
        out: dict[int, EpsLaurent] = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                d = d1 + d2
                if d < -order:
                    continue
                p = v1 * v2
                out[d] = out[d] + p if d in out else p
        return ZSeries(out, top=top, order=order)

    def scale(self, k) -> "ZSeries":
        """Multiply every coefficient by an EpsLaurent (or scalar)."""
        k = EpsLaurent.coerce(k)
        return ZSeries({d: v * k for d, v in self.c.items()}, self.top, self.order)

    def mul_zpow(self, k: int) -> "ZSeries":
        """Multiply by z^k (shifts the window)."""
        return ZSeries(
            {d + k: v for d, v in self.c.items()},
            top=self.top + k,
            order=self.order - k,
        )

    def truncate(self, order: int) -> "ZSeries":
        if order > self.order:
            raise WindowError("cannot enlarge a truncation window")
        return ZSeries({d: v for d, v in self.c.items() if d >= -order}, self.top, order)

    # -- analytic-style operations -----------------------------------------

    def shift(self, cshift: int) -> "ZSeries":
        """Expansion of z -> a(z + c): (z+c)^d expanded binomially, truncated."""
        if cshift == 0:
            return self
        out: dict[int, EpsLaurent] = {}
        for d, v in self.c.items():
            # (z+c)^d = sum_m binom(d, m) c^m z^(d-m); the generalized
            # binomial of an integer d is an integer, so each step divides exactly
            binom_cm = 1  # binom(d, m) * cshift^m
            m = 0
            while d - m >= -self.order:
                t = v * binom_cm
                e = d - m
                out[e] = out[e] + t if e in out else t
                binom_cm = binom_cm * (d - m) * cshift // (m + 1)
                m += 1
                if d >= 0 and m > d:
                    break
        return ZSeries(out, top=self.top, order=self.order)

    def exp(self) -> "ZSeries":
        """exp of a series with top degree <= -1."""
        if any(d >= 0 for d in self.c):
            raise ValueError("exp requires top degree <= -1")
        acc = ZSeries.const(1, self.order)
        term = ZSeries.const(1, self.order)
        for k in range(1, self.order + 1):
            term = ZSeries((term * self).c, top=0, order=self.order)
            if term.is_zero():
                break
            acc = acc + term.scale(Fraction(1, factorial(k)))
        return ZSeries(acc.c, top=0, order=self.order)

    def deriv(self) -> "ZSeries":
        """Termwise d/dz; the window deepens by one order."""
        out = {}
        for d, v in self.c.items():
            if d != 0:
                out[d - 1] = v * d
        return ZSeries(out, top=self.top - 1, order=self.order + 1)


def log1p_inv_z(order: int) -> ZSeries:
    """Series of log(1 + 1/z)."""
    return ZSeries(
        {-m: EpsLaurent.const(Fraction((-1) ** (m + 1), m)) for m in range(1, order + 1)},
        top=-1,
        order=order,
    )

