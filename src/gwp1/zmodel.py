"""Determinantal model: ratio of a shifted-wave determinant by the Vandermonde.

The N-variable partition function is det(E_k(z_j))_{j,k=1..N} / Delta(z),
where E_k(z) = eps^(1-k) * (the sigma=+1 normalized wave shifted by k-1),
a monic series z^(k-1)(1 + O(1/z)), and Delta = prod_{j<k}(z_k - z_j).  The
quotient is a symmetric series 1 + O(1/z_j); its logarithm, rewritten in the
time variables t_k, stabilizes in N at fixed degree.

Columns.  One closed-form f-wave (`closed_wave`, no triangular solve) at
order O + N + 1 feeds all N columns at order O: column k is the wave after
k - 1 single `wave_shift` steps, truncated to O and scaled by eps^(1-k).
Shifting loses window, 0, 1, 2, 3, 5, 8, 12 orders after 0..6 steps, so the
headroom N + 1 suffices up to N = 5 and every N >= 6 raises WindowError.  The
shifts, and this table, stay until the columns themselves are built in closed
form (E_k is S(z) times a sum of Gamma ratios, each rational in z, so no
window is lost).

Determinant.  det(columns[c](z_j)) is expanded row by row (row j carries
z_j), keeping partial sums per set S of columns used so far: N * 2^(N-1)
tensor steps instead of N! products.  Placing column c after S multiplies
the sign by (-1)^#{s in S : s > c}.  A term is pruned when its exponent sum
plus the tops of the still-unused columns is below `min_total`; the bound
depends only on the unused set, so each surviving monomial collects the same
permutation terms as a Leibniz sum pruned by the same bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epslaurent import EpsLaurent
from .miwa import MiwaPolynomial, symmetric_to_miwa
from .multiseries import NEG_INF, MultiSeries
from .waves import closed_wave, normalized_quartet, wave_shift
from .zseries import ZSeries


@lru_cache(maxsize=None)
def _column_chain(nvars: int, order: int) -> tuple[ZSeries, ...]:
    """E_1..E_nvars at one truncation order, from a single closed-form f-wave."""
    w = closed_wave(+1, order + nvars + 1)
    columns = []
    for k in range(1, nvars + 1):
        if k > 1:
            w = wave_shift(w, 1)
        columns.append(w.h.truncate(order).scale(EpsLaurent.mono(1 - k)))
    return tuple(columns)


@lru_cache(maxsize=None)
def zmodel_entry(k: int, order: int) -> ZSeries:
    """E_k(z) = eps^(1-k) (eps z/e)^(-z) f(z+k-1): monic of degree k-1."""
    if k < 1:
        raise ValueError("column index k must be >= 1")
    return _column_chain(k, order)[k - 1]


def _laplace_det(columns, min_total=NEG_INF) -> MultiSeries:
    """det(columns[c](z_j))_{j,c}, keeping only totals >= min_total."""
    n = len(columns)
    tops = [f.top for f in columns]
    # column entries and their negatives, for odd placements
    signed = [(list(f.c.items()), [(d, -w) for d, w in f.c.items()]) for f in columns]
    partial = {0: {(): EpsLaurent.one()}}
    for _ in range(n):
        nxt: dict[int, dict[tuple, EpsLaurent]] = {}
        for used, terms in partial.items():
            free = [c for c in range(n) if not used >> c & 1]
            free_top = sum(tops[c] for c in free)
            for c in free:
                col = signed[c][bin(used >> (c + 1)).count("1") & 1]
                acc = nxt.setdefault(used | 1 << c, {})
                for t, v in terms.items():
                    floor = min_total - sum(t) - (free_top - tops[c])
                    for d, w in col:
                        if d >= floor:
                            key, p = t + (d,), v * w
                            acc[key] = acc[key] + p if key in acc else p
        partial = {u: {t: v for t, v in acc.items() if v} for u, acc in nxt.items()}
    lo = (max(-f.order for f in columns),) * n
    return MultiSeries(n, partial[(1 << n) - 1], lo, lo_tot=min_total,
                       hi=(max(tops),) * n, hi_tot=sum(tops))


@dataclass(frozen=True)
class ZModelExpansion:
    nvars: int
    degree: int
    quotient: MultiSeries  # symmetric series, constant term 1
    log_in_times: MiwaPolynomial


def zmodel_expansion(nvars: int, degree: int) -> ZModelExpansion:
    """Expand the partition function and its logarithm to a total degree.

    Divides the determinant by each Vandermonde factor after certifying the
    diagonal vanishing that makes the division exact, then checks symmetry
    and unit constant term before taking the logarithm.
    """
    if nvars <= degree:
        raise ValueError("need nvars > degree for a faithful time expansion")
    npairs = nvars * (nvars - 1) // 2
    # the per-variable truncation at -order can contaminate totals down to
    # -order + npairs - nvars + 1 after the Vandermonde divisions, so the
    # order must keep that contamination below the requested degree
    order = degree + max(nvars, npairs - nvars + 1)
    vtop = npairs  # total degree of the Vandermonde
    num = _laplace_det(_column_chain(nvars, order), vtop - degree)
    remaining = npairs
    q = num
    for b in range(1, nvars):
        for a in range(b):
            diag = q.subs_equal(b, a)
            if not diag.is_zero():
                raise RuntimeError(
                    f"determinant not divisible by (z_{b} - z_{a}); "
                    "numerator failed the diagonal vanishing check"
                )
            q = q.divide_by_difference(b, a)
            remaining -= 1
            q = q.truncate_total(remaining - degree)
    _check_symmetric(q)
    one = (0,) * nvars
    if q.coeff(one) != EpsLaurent.one():
        raise RuntimeError("quotient does not have constant term 1")
    logq = _log_series(q, degree)
    return ZModelExpansion(nvars, degree, q, symmetric_to_miwa(logq, degree))


def _check_symmetric(q: MultiSeries) -> None:
    n = q.n
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        swapped = q.relabel(perm)
        if swapped.c != q.c:
            raise RuntimeError("quotient is not a symmetric series")


def _log_series(q: MultiSeries, degree: int) -> MultiSeries:
    """log(1 + u) with u = q - 1, truncated to total degree <= `degree`."""
    n = q.n
    u = q + (-MultiSeries.const(n, 1))
    u = u.truncate_total(-degree)
    acc = u
    power = u
    for m in range(2, degree + 1):
        power = power.mul(u).truncate_total(-degree)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (m + 1), m))
    return acc


def stabilization_check(degree: int, n1: int, n2: int) -> bool:
    """The time-variable logarithm must agree between two variable counts."""
    e1 = zmodel_expansion(n1, degree)
    e2 = zmodel_expansion(n2, degree)
    return e1.log_in_times == e2.log_in_times


# ---------------------------------------------------------------------------
# Characteristic-matrix representation
# ---------------------------------------------------------------------------

def characteristic_entry(k: int, order: int) -> ZSeries:
    """G_k(z) = sum_{m=0}^{k-1} z^m ([B]_{m+1-k} A(z) - [Bt]_{m+1-k} At(z)).

    [B]_e denotes the coefficient of z^e in the corresponding series; this is
    the polynomial-part projection of z^(k-1) against the two-point kernel,
    and must reproduce the determinantal-model entry E_k.
    """
    a, at, b, bt = normalized_quartet(order + k)
    acc = ZSeries.zero(order)
    for m in range(k):
        cb = b.coeff(m + 1 - k)
        cbt = bt.coeff(m + 1 - k)
        piece = a.scale(cb) - at.scale(cbt)
        acc = acc + piece.truncate(order + m).mul_zpow(m)
    return ZSeries(acc.c, top=k - 1, order=order)


def characteristic_det_check(nvars: int, order: int) -> bool:
    """det G = det E for small sizes.

    G and E agree only up to a unipotent right factor (columns mix), so the
    comparison is between determinants as multivariate series.
    """
    g = _laplace_det([characteristic_entry(k, order) for k in range(1, nvars + 1)])
    e = _laplace_det(_column_chain(nvars, order))
    diff = g - e
    return all(not diff._valid(t) for t in diff.c)
