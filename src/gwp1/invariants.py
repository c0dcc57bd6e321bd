"""Stationary descendent invariants as traces of edge matrices of the wave kernel.

With K(z, w) = A(z)B(w) - Atilde(z)Btilde(w), an n-point value is the coefficient of
prod_v z_v^(c_v), c_v = -k_v - 2, in the sum over cycles 0 -> s_1 -> ... -> s_(n-1) -> 0 of the
products of the edge factors K(z_u, z_v)/(z_u - z_v), each difference expanded in the nested
region |z_1| > ... > |z_n|; for n = 1 the one edge z_0 -> z_0 is the regular part a(z, z) of
K(z, w)/(z - w) at w = z.  Every edge is read from the affine coordinates a(x, y) of
(K(z, w) - 1)/(z - w) (`waves.affine_diagonals`): for every n >= 1 the edge factor
sum_{x,y} G(x, y) z_u^x z_v^y has

    G(x, y) = a(x, y) + [x + y = -1] * (+1 if u < v and x < 0,
                                        -1 if u > v and x >= 0),

the bracket being 1/(z_u - z_v) expanded in |z_u| > |z_v| or |z_u| < |z_v|.  With x_v the
exponent of z_v in the edge leaving v, a cycle contributes the trace of the product of the
matrices M[x_u, x_v] = G(x_u, c_v - x_v).  The sum is finite: G vanishes unless x + y <= -1 and
the n edge totals x + y add up to sum(c), so each edge total lies in [sum(c) + n - 1, -1]; x_0
lies in [c_0 + 1, -1] because x <= -1 on the edge leaving 0 and y <= -1 on the edge entering
it.  The trace runs on integers: the diagonals it reads come as numerators over one denominator
D (`waves.affine_diagonals`), the bracket is +-D, each product of n edges is a numerator over
D^n, and the sum is wrapped in one EpsLaurent.
Paths from 0 that share their visited set and last vertex share every continuation, so the
cycles are summed by one transfer per x0 over those states (Held-Karp 1962; Bellman 1962).

Genus floor.  Every eps exponent of a summed diagonal is even and <= 0 (`_Rows.diagonal`
raises on a positive one) and the bracket is eps^0, so a partial product's exponent never
rises along a cycle.  The value -eps^(sum k)/prod (k+1)! * trace sits at eps^(2g-2), genus g
>= 0, so no trace term below -2 - sum(k) survives: a partial term below that floor is dropped.

Selection rule: a class of genus g and degree d has sum k = 2g - 2 + 2d, so an invariant with odd
sum k is 0, returned before any trace, row or check (Okounkov-Pandharipande, arXiv:math/0204305).
Each tau_0 is derived, not traced: on P^1, <tau_0 prod tau_k>_(g,d) = d <prod tau_k>_(g,d) with
d = (sum k - 2g + 2)/2 (divisor equation, same reference).  Every trace that runs must equal its
GW/H value, which reads no table, else RuntimeError:
`_one_point_closed_form` for n = 1 and the partition sum `gwh_invariant` for n >= 2 (`hurwitz`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import index
from typing import Iterable, NamedTuple

from .epslaurent import ZERO, EpsLaurent
from .hurwitz import _divisor_scaled, _one_point_closed_form, gwh_invariant
from .waves import affine_diagonals


class InvariantRecord(NamedTuple):
    ks: tuple[int, ...]
    value: EpsLaurent


def _weight(ks) -> EpsLaurent:
    """Per-insertion residue weight eps^k / (k+1)!: the kernel K carries no overall eps power, so
    the eps^(k+1) of the residue integrand combines with a 1/eps per variable; the normalization
    is calibrated on <tau_0 tau_0> = eps^-2."""
    return EpsLaurent.from_ints({sum(ks): 1}, prod(factorial(k + 1) for k in ks))


def _edge(diagonals: dict[int, dict[int, dict[int, int]]], den: int, forward: bool,
          x: int, y: int) -> dict[int, int]:
    """Numerators over den of G(x, y) of an edge u -> v, forward when u < v: a(x, y) from the
    `affine_diagonals` over den, which vanishes on x + y >= -1, plus the bracket on x + y = -1."""
    if x + y != -1:
        return diagonals[x + y].get(x, {}) if x + y < -1 else {}
    if forward:
        return {0: den} if x < 0 else {}
    return {} if x < 0 else {0: -den}


def _cycle_sum(ks: tuple[int, ...]) -> EpsLaurent:
    """The cycle traces by one integer transfer per x0 over (visited set, last vertex), Held-Karp
    1962 and Bellman 1962: n-edge products over D^n, wrapped once; terms below the floor drop."""
    n = len(ks)
    c = [-k - 2 for k in ks]
    edge_lo, floor = sum(c) + n - 1, -2 - sum(ks)
    # the other n - 1 edge totals are at least edge_lo, so none exceeds sum(c) - (n - 1) edge_lo
    diagonals, den = affine_diagonals(edge_lo, sum(c) - (n - 1) * edge_lo)
    total: dict[int, int] = {}
    for x0 in range(c[0] + 1, 0):
        layer = {(1, 0): {x0: {0: 1}}}
        for _ in range(n):
            grown: dict = {}
            for (seen, u), partial in layer.items():
                # a path that has visited every vertex closes to 0 at x0, adding into the total
                for v in [v for v in range(1, n) if not seen >> v & 1] or [0]:
                    nxt = grown.setdefault((seen | 1 << v, v), {}) if v else {x0: total}
                    for xu, p in partial.items():
                        if xu >= 0:  # a(x, y) = 0 for x >= 0: only the backward bracket, x + y = -1
                            xv = xu + c[v] + 1
                            xvs = (xv,) if u > v and (v or xv == x0) else ()
                        else:  # the edge total xu + c_v - xv lies in [edge_lo, -1]
                            xvs = range(xu + c[v] + 1, xu + c[v] - edge_lo + 1) if v else (x0,)
                        for xv in xvs:
                            g = _edge(diagonals, den, u < v, xu, c[v] - xv)
                            if g:
                                acc = nxt.setdefault(xv, {})
                                for e1, n1 in p.items():
                                    for e2, n2 in g.items():
                                        if (e := e1 + e2) >= floor:
                                            acc[e] = acc.get(e, 0) + n1 * n2
            layer = grown
    return EpsLaurent.from_ints(total, den**n)


def n_point_invariant(ks: Iterable[int]) -> InvariantRecord:
    """Connected <tau_{k_1} ... tau_{k_n}>: 0 for odd sum(ks), else checked against its GW/H
    value.  ks, integers, is normalised before the cache, so every call form shares one entry."""
    try:
        key = tuple(map(index, ks))
    except TypeError:
        raise TypeError(f"ks must be integers, got ks={ks!r}") from None
    return _n_point_invariant(key)


@lru_cache(maxsize=None)
def _n_point_invariant(ks: tuple[int, ...]) -> InvariantRecord:
    """Odd sum(ks) gives 0 by the selection rule, before any work; zeros are derived from the
    rest of ks, whose order the record keeps."""
    if any(k < 0 for k in ks):
        raise ValueError(f"all k must be >= 0, got ks={ks}")
    if len(ks) == 0:
        raise ValueError("need at least one insertion")
    if sum(ks) % 2:
        return InvariantRecord(ks, ZERO)
    base = tuple(k for k in ks if k) or (0,)
    if base != ks:
        value = _divisor_scaled(n_point_invariant(base).value, sum(ks), len(ks) - len(base))
        return InvariantRecord(ks, value)
    value = -_weight(ks) * _cycle_sum(ks)
    want = _one_point_closed_form(ks[0]) if len(ks) == 1 else gwh_invariant(ks)
    if value != want:
        raise RuntimeError(f"invariant for ks={ks} failed its check: {value} against {want}")
    return InvariantRecord(ks, value)


n_point_invariant.cache_info = _n_point_invariant.cache_info
n_point_invariant.cache_clear = _n_point_invariant.cache_clear


def invariant_by_genus(ks) -> dict[int, Fraction]:
    """Split an invariant into genus contributions: genus g sits at eps^(2g-2)."""
    rec = n_point_invariant(ks)
    out: dict[int, Fraction] = {}
    for e in rec.value.exponents():
        if (e + 2) % 2 != 0 or e < -2:
            raise RuntimeError(f"unexpected eps-exponent {e} in invariant {ks}")
        out[(e + 2) // 2] = rec.value[e]
    return out

