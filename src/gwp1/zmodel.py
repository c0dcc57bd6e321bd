"""Determinantal model in Plucker coordinates.

The N-variable partition function is det(E_k(z_j))_{j,k=1..N} / Delta(z),
where E_k(z) = eps^(1-k) * (the sigma=+1 normalized wave shifted by k-1),
a monic series z^(k-1)(1 + O(1/z)), and Delta = prod_{j<k}(z_k - z_j).  By
Cauchy-Binet over the exponents of the columns it is the Sato-Grassmannian
expansion of a KP tau function (Segal-Wilson 1985):

    det(E_k(z_j)) / Delta(z) = sum_{l(lam) <= N} pi_lam s_lam(1/z_1, ..., 1/z_N),
    pi_lam = det([z^(j-1-lam_j)] E_k)_{j,k=1..N}.

Giambelli.  In Frobenius coordinates lam = (alpha_1..alpha_r | beta_1..beta_r),
alpha_i = lam_i - i and beta_i = lam'_i - i for the Durfee rank r, every pi_lam
is an r x r determinant of hooks, and each hook is one affine coordinate
a(x, y) of the kernel (Zhou, arXiv:1306.5429; `waves.affine_diagonals`):

    pi_lam = det(pi_(alpha_i | beta_j))_{i,j=1..r},
    pi_(a|b) = (-1)^(b+1) a(-a-1, -b-1).

None of it depends on N.  As r^2 <= |lam|, degree <= 24 needs at most 4 x 4
determinants (`_det`), and the hooks with a + b < degree, on the diagonals
down to -(degree + 1), fix every pi_lam with |lam| <= degree.
The logarithm is taken in the power-sum basis (`miwa.py`), where it is a
polynomial in the times.

E-frame.  `zmodel_entry` keeps the shifted-wave columns E_k, whose minors
the checks compare with the hook determinants.  The difference equation at
z + k - 1 ties three consecutive columns together, a three-term recurrence
in the column index:

    E_(k+1) = (z + k - 1/2) E_k - eps^(-2) E_(k-1),   E_0 = eps Atilde, E_1 = A.

Each step multiplies by z once and so gives up one order of window, and
nothing else: one quartet at order O + N - 1 gives E_1..E_N exactly to z^(-O).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .epslaurent import EPS, ONE, ZERO, EpsLaurent
from .hurwitz import free_energy
from .miwa import (MiwaPolynomial, log_power_sums, partitions, power_sums_to_times,
                   schur_to_monomials, schur_to_power_sums)
from .waves import affine_diagonals, normalized_quartet
from .zseries import WindowError, ZSeries


@lru_cache(maxsize=None)
def _column_chain(nvars: int, order: int) -> tuple[ZSeries, ...]:
    """E_1..E_nvars at one truncation order, by the recurrence from one quartet."""
    a, at, _, _ = normalized_quartet(order + nvars - 1)
    eps_inv2 = EpsLaurent.mono(-2)
    prev, cur = at.scale(EPS), a
    columns = [cur.truncate(order)]
    for k in range(1, nvars):
        prev, cur = cur, (
            cur.mul_zpow(1) + cur.scale(Fraction(2 * k - 1, 2)) - prev.scale(eps_inv2)
        )
        columns.append(cur.truncate(order))
    return tuple(columns)


@lru_cache(maxsize=None)
def zmodel_entry(k: int, order: int) -> ZSeries:
    """E_k(z) = eps^(1-k) (eps z/e)^(-z) f(z+k-1): monic of degree k-1."""
    if k < 1:
        raise ValueError("column index k must be >= 1")
    return _column_chain(k, order)[k - 1]


def _det(rows: list[dict[int, EpsLaurent]]) -> EpsLaurent:
    """Determinant from sparse rows {column: entry}, expanded row by row.

    Partial sums are kept per set of columns used so far; placing column c
    after the set S multiplies the sign by (-1)^#{s in S : s > c}.
    """
    partial = {0: ONE}
    for row in rows:
        nxt: dict[int, EpsLaurent] = {}
        for used, v in partial.items():
            for c, x in row.items():
                if used >> c & 1:
                    continue
                p = v * x if bin(used >> c).count("1") % 2 == 0 else -(v * x)
                key = used | 1 << c
                nxt[key] = nxt[key] + p if key in nxt else p
        partial = nxt
    return sum(partial.values(), ZERO)


def _minor(lam: tuple[int, ...], columns) -> EpsLaurent:
    """det([z^(j-1-lam_j)] columns[k])_{j,k}, lam padded with zeros to the size."""
    rows = []
    for j in range(len(columns)):
        e = j - (lam[j] if j < len(lam) else 0)
        rows.append({k: x for k, col in enumerate(columns) if (x := col.coeff(e))})
    return _det(rows)


def plucker_coordinates(degree: int) -> dict[tuple[int, ...], EpsLaurent]:
    """pi_lam for every partition with |lam| <= degree, by Giambelli over the hooks."""
    hook = {}
    for n in range(degree, 0, -1):  # pi_(a|b) on a + b = n - 1, deepest first: rows grow once
        diagonals, den = affine_diagonals(-n - 1, -n - 1)
        for a in range(n):  # (-1)^(b+1) = (-1)^(n-a)
            num = diagonals[-n - 1].get(-a - 1, {})
            hook[a, n - 1 - a] = EpsLaurent.from_ints(
                num if (n - a) % 2 == 0 else {e: -v for e, v in num.items()}, den)
    out = {}
    for w in range(degree + 1):
        for lam in partitions(w):
            rank = sum(p > i for i, p in enumerate(lam))
            alpha = [lam[i] - i - 1 for i in range(rank)]
            beta = [sum(p > i for p in lam) - i - 1 for i in range(rank)]
            rows = [{j: h for j, b in enumerate(beta) if (h := hook[a, b])} for a in alpha]
            if pi := _det(rows):
                out[lam] = pi
    return out


class SymmetricQuotient(NamedTuple):
    """det/Delta in N variables, a symmetric series: {nu: coefficient of z^(-nu)} for
    l(nu) <= N and |nu| <= degree.  An exponent tuple reads its sorted partition; one with a
    positive exponent reads none, so zero."""

    nvars: int
    degree: int
    monomials: dict[tuple[int, ...], EpsLaurent]

    def coeff(self, t) -> EpsLaurent:
        t = tuple(t)
        if len(t) != self.nvars or sum(t) < -self.degree:
            raise WindowError(
                f"tuple {t} outside the expansion: {self.nvars} exponents with "
                f"total >= -{self.degree}"
            )
        return self.monomials.get(tuple(sorted((-x for x in t if x), reverse=True)), ZERO)

    @property
    def c(self) -> dict[tuple[int, ...], EpsLaurent]:
        """{exponent tuple: coefficient}, every arrangement of every nu written out."""
        return {t: v for nu, v in self.monomials.items()
                for t in _arrangements(tuple(-p for p in nu) + (0,) * (self.nvars - len(nu)))}


def _arrangements(values: tuple[int, ...]):
    """The distinct orderings of a tuple with repeated entries."""
    if not values:
        yield ()
        return
    for v in set(values):
        i = values.index(v)
        for rest in _arrangements(values[:i] + values[i + 1:]):
            yield (v,) + rest


class ZModelExpansion(NamedTuple):
    nvars: int
    degree: int
    plucker: dict[tuple[int, ...], EpsLaurent]  # pi_lam, |lam| <= degree
    log_in_times: MiwaPolynomial

    @property
    def quotient(self) -> SymmetricQuotient:
        """sum pi_lam s_lam(1/z_1..1/z_N) in monomials, built on each access; callers hold it.
        The coefficient of z^(-nu), l(nu) <= N, is sum_lam pi_lam K_(lam,nu) by strip removal."""
        mono = schur_to_monomials(self.plucker)
        return SymmetricQuotient(self.nvars, self.degree,
                                 {nu: v for nu, v in mono.items() if len(nu) <= self.nvars})


def zmodel_expansion(nvars: int, degree: int) -> ZModelExpansion:
    """Expand the partition function and its logarithm to a total degree.

    Every partition with |lam| <= degree < nvars has l(lam) <= nvars, so the
    Plucker coordinates are those of the infinite-N tau function, and the
    power sums p_1..p_degree of nvars > degree variables are independent.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got degree={degree}")
    if nvars <= degree:
        raise ValueError(f"need nvars > degree, got nvars={nvars}, degree={degree}")
    plucker = plucker_coordinates(degree)
    logs = log_power_sums(schur_to_power_sums(plucker), degree)
    return ZModelExpansion(nvars, degree, plucker, power_sums_to_times(logs, degree))


def stabilization_check(degree: int, n1: int, n2: int) -> bool:
    """The logarithm at n1 and n2 variables, both > degree, against the GW/H free energy.

    One expansion serves both counts.  For |lam| <= degree < n, the n x n E-frame
    minor pi_lam = det([z^(j-1-lam_j)] E_k)_{j,k=1..n}, lam padded with zeros, is block
    upper triangular: each row j > l(lam) reads [z^(j-1)] of the monic E_k = z^(k-1)(1 +
    O(1/z)), 0 for k < j and 1 for k = j.  So it is the l(lam) x l(lam) minor of
    E_1..E_l(lam) whatever n is, and Giambelli reads no n.  Every coefficient of weight
    <= degree must equal `hurwitz.free_energy(degree)`'s, which reads no wave and no
    hook; for degree <= 3 these are the coefficients of t_0^m t_k, m + k + 1 <= degree.
    """
    return zmodel_expansion(min(n1, n2), degree).log_in_times.coeffs == free_energy(degree)


def characteristic_det_check(nvars: int, order: int) -> bool:
    """The two routes agree: for every |lam| <= order with l(lam) <= nvars,
    the nvars x nvars minor of the E-frame coefficients equals pi_lam from
    the hook determinant."""
    e_frame = _column_chain(nvars, order)
    plucker = plucker_coordinates(order)
    return all(
        _minor(lam, e_frame) == plucker.get(lam, ZERO)
        for w in range(order + 1)
        for lam in partitions(w)
        if len(lam) <= nvars
    )
