"""Coefficient ring: Laurent polynomials in eps with exact rational coefficients.

Every coefficient appearing in the expansions handled by this package lies in
Q[eps, 1/eps]; divisions that occur during the triangular solves are always by
monomials, so no rational-function field is needed.

Representation.  A value is sum_e num[e] * eps^e / den: integer numerators
``num`` (a dict {exponent: int} that never stores a zero) over one positive
integer denominator ``den``.  The form is canonical: gcd(den, *num.values())
is 1, and zero is ({}, 1).  Every operation restores it with at most one
``math.gcd`` over the result, so equality and hashing compare the two fields
directly, and products, sums and negations run on plain ints: a convolution of numerators,
plus an lcm of the denominators when they differ.  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Union

Scalar = Union[int, Fraction]


def _make(num: dict[int, int], den: int) -> "EpsLaurent":
    """Wrap fields that are already canonical."""
    r = object.__new__(EpsLaurent)
    r.num = num
    r.den = den
    return r


def _canonical(num: dict[int, int], den: int) -> "EpsLaurent":
    """Wrap zero-free numerators over den > 0, dividing out their common gcd."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: v // g for e, v in num.items()}
            den //= g
    return _make(num, den)


class EpsLaurent:
    """Laurent polynomial in eps: integer numerators {exp: int} over one denominator."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        fr = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(v, (int, Fraction)):
                    v = Fraction(v)
                if v:
                    fr[int(e)] = v
        # the lcm of reduced denominators leaves no common factor with the
        # scaled numerators, so the result is already canonical
        den = lcm(*(v.denominator for v in fr.values()))
        self.num = {e: v.numerator * (den // v.denominator) for e, v in fr.items()}
        self.den = den

    @property
    def c(self) -> dict[int, Fraction]:
        """The coefficients as a fresh {exponent: Fraction} dict (read-only view)."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.num.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "EpsLaurent":
        return EpsLaurent()

    @staticmethod
    def one() -> "EpsLaurent":
        return EpsLaurent({0: 1})

    @staticmethod
    def from_ints(num: Mapping[int, int], den: int = 1) -> "EpsLaurent":
        """sum_e num[e] * eps^e / den, from integer numerators over an integer den > 0."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        return _canonical({e: v for e, v in num.items() if v}, den)

    @staticmethod
    def mono(exp: int, coeff: Scalar = 1) -> "EpsLaurent":
        return EpsLaurent({exp: coeff})

    @staticmethod
    def const(x: Scalar) -> "EpsLaurent":
        return EpsLaurent({0: x})

    @staticmethod
    def coerce(x: "EpsLaurent | Scalar") -> "EpsLaurent":
        if isinstance(x, EpsLaurent):
            return x
        return EpsLaurent.const(x)

    # -- ring structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsLaurent):  # first: Fraction's ABCMeta isinstance runs Python
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = EpsLaurent.const(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self.num.keys() <= {0}:  # a constant hashes as the Fraction it equals
            return hash(Fraction(self.num.get(0, 0), self.den))
        return hash((self.den, frozenset(self.num.items())))

    def __add__(self, other: "EpsLaurent | Scalar") -> "EpsLaurent":
        other = EpsLaurent.coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            den = d1
            out = dict(self.num)
            items = other.num.items()
        else:
            den = lcm(d1, d2)
            m1, m2 = den // d1, den // d2
            out = {e: v * m1 for e, v in self.num.items()}
            items = [(e, v * m2) for e, v in other.num.items()]
        for e, v in items:
            s = out.get(e, 0) + v
            if s:
                out[e] = s
            else:
                del out[e]
        return _canonical(out, den)

    __radd__ = __add__

    def __neg__(self) -> "EpsLaurent":
        return _make({e: -v for e, v in self.num.items()}, self.den)

    def __sub__(self, other: "EpsLaurent | Scalar") -> "EpsLaurent":
        return self + (-EpsLaurent.coerce(other))

    def __rsub__(self, other: Scalar) -> "EpsLaurent":
        return EpsLaurent.coerce(other) - self

    def __mul__(self, other: "EpsLaurent | Scalar") -> "EpsLaurent":
        if not isinstance(other, EpsLaurent):  # EpsLaurent first, as in __eq__
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return _make({}, 1)
            p, q = other.numerator, other.denominator
            return _canonical({e: v * p for e, v in self.num.items()}, self.den * q)
        out: dict[int, int] = {}
        n2 = other.num.items()
        for e1, v1 in self.num.items():
            for e2, v2 in n2:
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        if 0 in out.values():
            out = {e: v for e, v in out.items() if v}
        return _canonical(out, self.den * other.den)

    __rmul__ = __mul__

    def div_exact(self, other: "EpsLaurent") -> "EpsLaurent":
        """Exact division by a monomial c*eps^e; any other divisor is refused."""
        if not other:
            raise ZeroDivisionError("division by zero EpsLaurent")
        if len(other.num) != 1:
            raise ValueError("div_exact accepts only monomial divisors c*eps^e")
        # (num/den) / (p/q eps^e) = (num*q) / (den*p) eps^-e
        (e, p), = other.num.items()
        q = other.den
        if p < 0:
            p, q = -p, -q
        return _canonical({e1 - e: v * q for e1, v in self.num.items()}, self.den * p)

    # -- inspection ---------------------------------------------------------

    def exponents(self) -> Iterator[int]:
        return iter(sorted(self.num))

    def __getitem__(self, e: int) -> Fraction:
        return Fraction(self.num.get(e, 0), self.den)

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for e in sorted(self.num):
            v = self[e]
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"{v}*eps")
            else:
                parts.append(f"{v}*eps^{e}")
        return " + ".join(parts)

    # -- numeric bridge -----------------------------------------------------

    def eval(self, eps):
        """Horner evaluation at a numeric eps (mpf, float, Fraction)."""
        if not self.num:
            return 0 * eps
        exps = sorted(self.num, reverse=True)
        lo = exps[-1]
        if lo < 0 and eps == 0:
            raise ZeroDivisionError("negative eps-powers present, eps must be nonzero")
        # Horner in eps on the polynomial self * eps^(-lo), then scale back;
        # each coefficient enters as its exact Fraction
        acc = 0 * eps
        prev = None
        for e in exps:
            if prev is not None:
                acc = acc * eps ** (prev - e)
            acc = acc + self[e]
            prev = e
        return acc * eps ** lo

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {str(e): str(self[e]) for e in sorted(self.num)}


ZERO = EpsLaurent.zero()
ONE = EpsLaurent.one()
EPS = EpsLaurent.mono(1)
EPS_INV = EpsLaurent.mono(-1)
