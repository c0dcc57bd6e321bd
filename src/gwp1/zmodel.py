"""Determinantal model: ratio of a shifted-wave determinant by the Vandermonde.

The N-variable partition function is det(E_k(z_j))_{j,k=1..N} / Delta(z),
where E_k(z) = eps^(1-k) * (the sigma=+1 normalized wave shifted by k-1),
a monic series z^(k-1)(1 + O(1/z)), and Delta = prod_{j<k}(z_k - z_j).  The
quotient is a symmetric series 1 + O(1/z_j); its logarithm, rewritten in the
time variables t_k, stabilizes in N at fixed degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .epslaurent import EpsLaurent
from .miwa import MiwaPolynomial, symmetric_to_miwa
from .multiseries import MultiSeries
from .waves import normalized_quartet, solve_formal_wave, wave_shift
from .zseries import ZSeries


@lru_cache(maxsize=None)
def zmodel_entry(k: int, order: int) -> ZSeries:
    """E_k(z) = eps^(1-k) (eps z/e)^(-z) f(z+k-1): monic of degree k-1."""
    if k < 1:
        raise ValueError("column index k must be >= 1")
    w = solve_formal_wave(+1, order + k + 1)
    h = wave_shift(w, k - 1).h
    return h.truncate(order).scale(EpsLaurent.mono(1 - k))


def _det_numerator(nvars: int, order: int, min_total: int) -> MultiSeries:
    """Leibniz determinant of E_k(z_j), keeping only totals >= min_total."""
    entries = [zmodel_entry(k, order) for k in range(1, nvars + 1)]
    total = None
    for sigma in permutations(range(nvars)):
        sign = _perm_sign(sigma)
        factors = [entries[sigma[j]] for j in range(nvars)]
        term = _separable_truncated(factors, min_total)
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def _perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _separable_truncated(factors, min_total: int) -> MultiSeries:
    """Tensor product of univariate series, pruned to totals >= min_total."""
    n = len(factors)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + factors[i].top
    out = {(): EpsLaurent.one()}
    for i, f in enumerate(factors):
        nxt: dict[tuple, EpsLaurent] = {}
        for t, v in out.items():
            base = sum(t)
            for d, w in f.c.items():
                if base + d + suffix_max[i + 1] < min_total:
                    continue
                nxt[t + (d,)] = v * w
        out = nxt
    lo = tuple(-f.order for f in factors)
    hi = tuple(f.top for f in factors)
    return MultiSeries(n, out, lo, lo_tot=min_total, hi=hi, hi_tot=sum(hi))


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
    num = _det_numerator(nvars, order, vtop - degree)
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


def _leibniz_det(columns, nvars: int) -> MultiSeries:
    """det(columns[k](z_j))_{j,k}: row j carries variable j."""
    total = None
    for sigma in permutations(range(nvars)):
        term = MultiSeries.separable([columns[sigma[j]] for j in range(nvars)])
        if _perm_sign(sigma) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def characteristic_det_check(nvars: int, order: int) -> bool:
    """det G = det E for small sizes.

    G and E agree only up to a unipotent right factor (columns mix), so the
    comparison is between determinants as multivariate series.
    """
    g = _leibniz_det([characteristic_entry(k, order) for k in range(1, nvars + 1)], nvars)
    e = _leibniz_det([zmodel_entry(k, order) for k in range(1, nvars + 1)], nvars)
    diff = g - e
    return all(not diff._valid(t) for t in diff.c)
