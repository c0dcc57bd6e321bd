"""Conversion of symmetric expansions in 1/z_1..1/z_N to scaled time variables.

The time variables are t_k = (k!/eps^k) * sum_j z_j^(-k-1), i.e. the power sum
p_m = sum_j z_j^(-m) corresponds to eps^(m-1) t_(m-1) / (m-1)!.  A symmetric
polynomial of bounded total degree in the 1/z_j is re-expressed in the power
sum basis by exact linear algebra over the monomial symmetric basis (faithful
as long as the number of variables exceeds the degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .epslaurent import EpsLaurent
from .multiseries import MultiSeries


def partitions(w: int, max_part: int | None = None):
    """Partitions of w as sorted (descending) tuples."""
    if max_part is None:
        max_part = w
    if w == 0:
        yield ()
        return
    for first in range(min(w, max_part), 0, -1):
        for rest in partitions(w - first, first):
            yield (first,) + rest


@dataclass
class MiwaPolynomial:
    """Polynomial in the time variables t_k, keyed by sorted index multisets."""

    coeffs: dict[tuple[int, ...], EpsLaurent]
    degree: int  # grading deg t_k = k+1

    def coeff(self, ks) -> EpsLaurent:
        return self.coeffs.get(tuple(sorted(ks)), EpsLaurent.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MiwaPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def to_json(self) -> dict[str, dict[str, str]]:
        return {
            ",".join(map(str, ks)): v.to_json()
            for ks, v in sorted(self.coeffs.items())
        }


def _power_sum_monomial(mu: tuple[int, ...], nvars: int) -> dict[tuple, Fraction]:
    """Expansion of prod_i p_{mu_i} as a polynomial in the degrees of 1/z_j."""
    poly: dict[tuple, Fraction] = {(0,) * nvars: Fraction(1)}
    for m in mu:
        nxt: dict[tuple, Fraction] = {}
        for t, v in poly.items():
            for j in range(nvars):
                tt = list(t)
                tt[j] += m
                key = tuple(tt)
                nxt[key] = nxt.get(key, Fraction(0)) + v
        poly = nxt
    return poly


@lru_cache(maxsize=None)
def _monomial_to_power_matrix(w: int, nvars: int):
    """Exact change of basis at weight w: rows = partitions mu (power sums),
    columns = partitions lam (monomial symmetric), entries = coefficient of
    the representative monomial of lam in p_mu."""
    lams = [lam for lam in partitions(w) if len(lam) <= nvars]
    mus = list(partitions(w))
    mat = []
    for mu in mus:
        poly = _power_sum_monomial(mu, nvars)
        row = []
        for lam in lams:
            rep = tuple(list(lam) + [0] * (nvars - len(lam)))
            row.append(poly.get(rep, Fraction(0)))
        mat.append(row)
    return mus, lams, mat


def _solve_exact(mat, rhs):
    """Solve mat^T x = rhs over Fractions (square, invertible by construction)."""
    n = len(mat)
    a = [[Fraction(mat[j][i]) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def symmetric_to_miwa(ms: MultiSeries, degree: int) -> MiwaPolynomial:
    """Rewrite a symmetric series in the 1/z_j (total degree <= `degree`)
    in the time variables t_k."""
    nvars = ms.n
    if nvars <= degree:
        raise ValueError("need more variables than the degree for faithfulness")
    # collect monomial-symmetric coordinates per weight
    out: dict[tuple[int, ...], EpsLaurent] = {}
    for w in range(1, degree + 1):
        mus, lams, mat = _monomial_to_power_matrix(w, nvars)
        if len(mus) != len(lams):
            raise RuntimeError("basis mismatch; not enough variables")
        rhs = []
        for lam in lams:
            rep = [0] * nvars
            for i, part in enumerate(lam):
                rep[i] = -part
            rhs.append(ms.coeff(tuple(rep)))
        # solve mat^T d = rhs with EpsLaurent right-hand side: do it column by
        # column over the eps-exponents via Fraction solves
        exps = sorted({e for v in rhs for e in v.exponents()})
        d = [EpsLaurent.zero() for _ in mus]
        for e in exps:
            col = _solve_exact(mat, [v[e] for v in rhs])
            for i, x in enumerate(col):
                if x:
                    d[i] = d[i] + EpsLaurent.mono(e, x)
        for mu, val in zip(mus, d):
            if not val:
                continue
            # p_m = eps^(m-1) t_(m-1) / (m-1)!
            scale = EpsLaurent.mono(
                sum(m - 1 for m in mu), Fraction(1, prod_factorials(mu))
            )
            ks = tuple(sorted(m - 1 for m in mu))
            c = out.get(ks, EpsLaurent.zero()) + val * scale
            if c:
                out[ks] = c
            else:
                out.pop(ks, None)
    return MiwaPolynomial(out, degree)


def prod_factorials(mu) -> int:
    p = 1
    for m in mu:
        p *= factorial(m - 1)
    return p
