"""Determinantal model in Plucker coordinates.

The N-variable partition function is det(E_k(z_j))_{j,k=1..N} / Delta(z),
where E_k(z) = eps^(1-k) * (the sigma=+1 normalized wave shifted by k-1),
a monic series z^(k-1)(1 + O(1/z)), and Delta = prod_{j<k}(z_k - z_j).  By
Cauchy-Binet over the exponents of the columns it is the Sato-Grassmannian
expansion of a KP tau function (Segal-Wilson 1985):

    det(E_k(z_j)) / Delta(z) = sum_{l(lam) <= N} pi_lam s_lam(1/z_1, ..., 1/z_N),
    pi_lam = det([z^(j-1-lam_j)] E_k)_{j,k=1..N}.

Normalised frame.  The columns may be changed by any unipotent upper
triangular mix without changing a minor, and the characteristic entries

    G_k(z) = z^(k-1) - sum_(x<=-1) a(x, -k) z^x,

read off the affine coordinates a(x, y) of the kernel (Zhou, arXiv:1306.5429;
`waves.affine_coordinates`), are such a mix.  In that frame row j > l(lam)
of the minor is the unit row e_j, so

    pi_lam = det([z^(j-1-lam_j)] G_k)_{j,k=1..l(lam)},

an l(lam) x l(lam) minor that does not depend on N.  Its rows with
lam_j < j are unit rows too, so the expansion along rows (`_det`) costs
about C(l, r) products for Durfee rank r.  Coefficients down to z^(-degree)
of G_1..G_degree fix every pi_lam with |lam| <= degree, with no window lost.
The logarithm is taken in the power-sum basis (`miwa.py`), where it is a
polynomial in the times.

E-frame.  `zmodel_entry` keeps the shifted-wave columns E_k, which the
checks compare with the normalised frame.  The difference equation at
z + k - 1 ties three consecutive columns together, a three-term recurrence
in the column index:

    E_(k+1) = (z + k - 1/2) E_k - eps^(-2) E_(k-1),   E_0 = eps Atilde, E_1 = A.

Each step multiplies by z once and so gives up one order of window, and
nothing else: one quartet at order O + N - 1 gives E_1..E_N exactly to z^(-O).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .epslaurent import EPS, ONE, ZERO, EpsLaurent
from .miwa import (
    MiwaPolynomial,
    log_power_sums,
    partitions,
    power_sums_to_times,
    schur_to_monomials,
    schur_to_power_sums,
)
from .waves import affine_coordinates, normalized_quartet
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
    """pi_lam for every partition with |lam| <= degree, in the normalised frame."""
    frame = _normalised_frame(degree, degree)
    return {
        lam: pi
        for w in range(degree + 1)
        for lam in partitions(w)
        if (pi := _minor(lam, frame[:len(lam)]))
    }


@dataclass(frozen=True)
class SymmetricQuotient:
    """det/Delta in N variables: {exponent tuple: coefficient}, totals >= -degree."""

    nvars: int
    degree: int
    c: dict[tuple[int, ...], EpsLaurent]

    def coeff(self, t) -> EpsLaurent:
        t = tuple(t)
        if len(t) != self.nvars or sum(t) < -self.degree:
            raise WindowError(
                f"tuple {t} outside the expansion: {self.nvars} exponents with "
                f"total >= -{self.degree}"
            )
        return self.c.get(t, ZERO)


def _arrangements(values: tuple[int, ...]):
    """The distinct orderings of a tuple with repeated entries."""
    if not values:
        yield ()
        return
    for v in set(values):
        i = values.index(v)
        for rest in _arrangements(values[:i] + values[i + 1:]):
            yield (v,) + rest


@dataclass(frozen=True)
class ZModelExpansion:
    nvars: int
    degree: int
    plucker: dict[tuple[int, ...], EpsLaurent]  # pi_lam, |lam| <= degree
    log_in_times: MiwaPolynomial

    @cached_property
    def quotient(self) -> SymmetricQuotient:
        """sum pi_lam s_lam(1/z_1..1/z_N) in monomials, built on first access: the
        coefficient of z^(-nu), l(nu) <= N, is sum_lam pi_lam K_(lam,nu) by strip removal."""
        c = {}
        for nu, v in schur_to_monomials(self.plucker).items():
            if len(nu) <= self.nvars:
                padded = tuple(-p for p in nu) + (0,) * (self.nvars - len(nu))
                c.update((t, v) for t in _arrangements(padded))
        return SymmetricQuotient(self.nvars, self.degree, c)


def zmodel_expansion(nvars: int, degree: int) -> ZModelExpansion:
    """Expand the partition function and its logarithm to a total degree.

    Every partition with |lam| <= degree < nvars has l(lam) <= nvars, so the
    Plucker coordinates are those of the infinite-N tau function, and the
    power sums p_1..p_degree of nvars > degree variables are independent.
    """
    if nvars <= degree:
        raise ValueError("need nvars > degree for a faithful time expansion")
    plucker = plucker_coordinates(degree)
    logs = log_power_sums(schur_to_power_sums(plucker), degree)
    return ZModelExpansion(nvars, degree, plucker, power_sums_to_times(logs, degree))


def stabilization_check(degree: int, n1: int, n2: int) -> bool:
    """The time-variable logarithm must agree between two variable counts."""
    e1 = zmodel_expansion(n1, degree)
    e2 = zmodel_expansion(n2, degree)
    return e1.log_in_times == e2.log_in_times


# ---------------------------------------------------------------------------
# Characteristic-matrix representation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _normalised_frame(count: int, order: int) -> tuple[ZSeries, ...]:
    """G_1..G_count at one truncation order, from one table of affine coordinates."""
    aff = affine_coordinates(order + count)
    columns = []
    for k in range(count, 0, -1):  # the deepest diagonal first, so the rows grow once
        g = {x: -aff(x, -k) for x in range(-order, 0)}
        g[k - 1] = ONE
        columns.append(ZSeries(g, top=k - 1, order=order))
    return tuple(reversed(columns))


def characteristic_entry(k: int, order: int) -> ZSeries:
    """G_k(z) = z^(k-1) - sum_(x<=-1) a(x, -k) z^x, with a the affine coordinates.

    The projection of z^(k-1) against the two-point kernel,
    G_k(z) = [w^(-k)] K(z, w)/(w - z) expanded in |w| > |z|: z^(k-1) + O(1/z),
    a unipotent column mix of the entries E_1..E_k.
    """
    if k < 1:
        raise ValueError("column index k must be >= 1")
    return _normalised_frame(k, order)[k - 1]


def characteristic_det_check(nvars: int, order: int) -> bool:
    """The two frames agree: for every |lam| <= order with l(lam) <= nvars,
    the nvars x nvars minor of the E-frame coefficients equals pi_lam from
    the l(lam) x l(lam) minor of the normalised frame."""
    e_frame = _column_chain(nvars, order)
    g_frame = _normalised_frame(min(nvars, order), order)
    return all(
        _minor(lam, e_frame) == _minor(lam, g_frame[:len(lam)])
        for w in range(order + 1)
        for lam in partitions(w)
        if len(lam) <= nvars
    )
