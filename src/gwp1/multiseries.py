"""Truncated Laurent series in several variables z_1..z_n over EpsLaurent.

Coefficients live in a dict keyed by exponent tuples.  Each object also
carries validity bookkeeping for the truncation it represents:

* ``lo[v]``   -- per-variable floor: below it, coefficients of z_v are suspect;
* ``lo_tot`` -- total-degree floor: tuples with smaller exponent sum are suspect;
* ``hi[v]``   -- upper bound on the z_v exponent of *every* monomial of the
  represented object, including the truncated-away tail (may be +inf);
* ``hi_tot`` -- same bound for the exponent sum (finite for all factors used
  here, because 1/(z_i - z_j) has homogeneous total degree -1).

A coefficient tuple is trustworthy iff every component meets its variable
floor and the component sum meets the total floor; reading anything else
raises WindowError.  The invariant maintained by the constructors and by
products is: every monomial of the truncation error violates at least one
floor.
"""

from __future__ import annotations

from typing import Sequence

from .epslaurent import ZERO, EpsLaurent
from .zseries import WindowError, ZSeries

NEG_INF = float("-inf")
POS_INF = float("inf")


def _floor_plus(lo, hi):
    """lo + hi with the convention that an absent floor stays absent."""
    if lo == NEG_INF:
        return NEG_INF
    return lo + hi


class MultiSeries:
    __slots__ = ("n", "c", "lo", "lo_tot", "hi", "hi_tot")

    def __init__(
        self,
        n: int,
        coeffs: dict[tuple, EpsLaurent],
        lo: Sequence,
        lo_tot=NEG_INF,
        hi: Sequence | None = None,
        hi_tot=None,
    ):
        self.n = n
        self.lo = tuple(lo)
        self.lo_tot = lo_tot
        self.hi = tuple(hi) if hi is not None else (POS_INF,) * n
        self.hi_tot = hi_tot if hi_tot is not None else (
            sum(self.hi) if POS_INF not in self.hi else POS_INF
        )
        self.c = {t: v for t, v in coeffs.items() if v and self._valid(t)}

    def _valid(self, t: tuple) -> bool:
        if sum(t) < self.lo_tot:
            return False
        return all(t[i] >= self.lo[i] for i in range(self.n))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(n: int, x) -> "MultiSeries":
        return MultiSeries(
            n, {(0,) * n: EpsLaurent.coerce(x)}, (NEG_INF,) * n, hi=(0,) * n, hi_tot=0
        )

    @staticmethod
    def from_zseries(zs: ZSeries, var: int, n: int) -> "MultiSeries":
        lo = [NEG_INF] * n
        lo[var] = -zs.order
        hi = [0] * n
        hi[var] = zs.top
        coeffs = {}
        for d, v in zs.c.items():
            t = [0] * n
            t[var] = d
            coeffs[tuple(t)] = v
        return MultiSeries(n, coeffs, lo, hi=hi, hi_tot=zs.top)

    @staticmethod
    def separable(factors: Sequence[ZSeries]) -> "MultiSeries":
        """Tensor product: factor i depends only on z_i."""
        n = len(factors)
        lo = tuple(-f.order for f in factors)
        hi = tuple(f.top for f in factors)
        out = {(): EpsLaurent.one()}
        for f in factors:
            nxt: dict[tuple, EpsLaurent] = {}
            for t, v in out.items():
                for d, w in f.c.items():
                    nxt[t + (d,)] = v * w
            out = nxt
        return MultiSeries(n, out, lo, hi=hi, hi_tot=sum(hi))

    # -- access -------------------------------------------------------------

    def coeff(self, t: tuple) -> EpsLaurent:
        if not self._valid(t):
            raise WindowError(
                f"tuple {t} outside validity region lo={self.lo}, lo_tot={self.lo_tot}"
            )
        return self.c.get(t, ZERO)

    def is_zero(self) -> bool:
        return not self.c

    def sup(self, var: int) -> int:
        """Largest stored exponent of one variable (0 for the zero series)."""
        if not self.c:
            return 0
        return max(t[var] for t in self.c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        out = dict(self.c)
        for t, v in other.c.items():
            out[t] = out[t] + v if t in out else v
        return MultiSeries(
            self.n,
            out,
            lo,
            lo_tot=max(self.lo_tot, other.lo_tot),
            hi=hi,
            hi_tot=max(self.hi_tot, other.hi_tot),
        )

    def __neg__(self) -> "MultiSeries":
        r = self._like(self.lo, self.lo_tot, self.hi, self.hi_tot)
        r.c = {t: -v for t, v in self.c.items()}
        return r

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def scale(self, k) -> "MultiSeries":
        k = EpsLaurent.coerce(k)
        r = self._like(self.lo, self.lo_tot, self.hi, self.hi_tot)
        r.c = {t: p for t, v in self.c.items() if (p := v * k)}
        return r

    def _like(self, lo, lo_tot, hi, hi_tot) -> "MultiSeries":
        r = MultiSeries.__new__(MultiSeries)
        r.n = self.n
        r.lo = tuple(lo)
        r.lo_tot = lo_tot
        r.hi = tuple(hi)
        r.hi_tot = hi_tot
        r.c = {}
        return r

    def mul(self, other: "MultiSeries") -> "MultiSeries":
        """Product with floor recomputation.

        Error monomials tied to a variable floor stay tied to it (the partner
        contributes at most its stored support top in that variable); error
        monomials tied to the total floor are bounded through hi_tot.
        """
        n = self.n
        lo = [NEG_INF] * n
        lo_tot = max(
            _floor_plus(self.lo_tot, other.hi_tot),
            _floor_plus(other.lo_tot, self.hi_tot),
        )
        # each error class of a factor is caught either through the total
        # floor (when the complementary hi-bounds are finite) or through its
        # own variable's floor against the partner's stored support
        for fa, fb in ((self, other), (other, self)):
            for u in range(n):
                if fa.lo[u] == NEG_INF:
                    continue
                rest = sum(fa.hi[w] for w in range(n) if w != u)
                if rest != POS_INF and fb.hi_tot != POS_INF:
                    lo_tot = max(lo_tot, fa.lo[u] + rest + fb.hi_tot)
                else:
                    lo[u] = max(lo[u], fa.lo[u] + fb.sup(u))
        lo = tuple(lo)
        hi = tuple(a + b for a, b in zip(self.hi, other.hi))
        hi_tot = self.hi_tot + other.hi_tot
        r = self._like(lo, lo_tot, hi, hi_tot)
        out: dict[tuple, EpsLaurent] = {}
        for t1, v1 in self.c.items():
            for t2, v2 in other.c.items():
                t = tuple(a + b for a, b in zip(t1, t2))
                if not r._valid(t):
                    continue
                p = v1 * v2
                out[t] = out[t] + p if t in out else p
        r.c = {t: v for t, v in out.items() if v}
        return r

    __mul__ = mul

    # -- structural operations ---------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "MultiSeries":
        """Send variable i to variable perm[i]."""
        n = self.n
        lo = [NEG_INF] * n
        hi = [POS_INF] * n
        for i in range(n):
            lo[perm[i]] = self.lo[i]
            hi[perm[i]] = self.hi[i]
        out = {}
        for t, v in self.c.items():
            tt = [0] * n
            for i in range(n):
                tt[perm[i]] = t[i]
            out[tuple(tt)] = v
        r = self._like(lo, self.lo_tot, hi, self.hi_tot)
        r.c = out
        return r

    def subs_equal(self, src: int, dst: int) -> "MultiSeries":
        """Substitute z_src -> z_dst (exponents merge onto dst; src turns inert).

        The total-degree floor is unchanged: the substitution preserves
        exponent sums.
        """
        new_floor = max(
            _floor_plus(self.lo[src], self.hi[dst]),
            _floor_plus(self.lo[dst], self.hi[src]),
        )
        out: dict[tuple, EpsLaurent] = {}
        for t, v in self.c.items():
            tt = list(t)
            tt[dst] = t[dst] + t[src]
            tt[src] = 0
            if tt[dst] < new_floor:
                continue
            key = tuple(tt)
            out[key] = out[key] + v if key in out else v
        lo = list(self.lo)
        lo[src] = NEG_INF
        lo[dst] = new_floor
        hi = list(self.hi)
        hi[dst] = self.hi[dst] + self.hi[src]
        hi[src] = 0
        r = self._like(lo, self.lo_tot, hi, self.hi_tot)
        r.c = {t: v for t, v in out.items() if v}
        return r

    def divide_by_difference(self, b: int, a: int) -> "MultiSeries":
        """Synthetic division by (z_b - z_a), top-down in the z_b exponent.

        The recursion Q_{e-1} = P_e + z_a * Q_e only consumes levels at or
        above the current one, so the z_b floor drops by one.  Divisibility
        within the window is not self-certifying here; callers certify it via
        the `subs_equal` vanishing check and downstream stabilization tests.
        """
        top_b = self.sup(b)
        floor_b = self.lo[b]
        levels: dict[int, dict[tuple, EpsLaurent]] = {}
        for t, v in self.c.items():
            levels.setdefault(t[b], {})[t] = v
        out: dict[tuple, EpsLaurent] = {}
        q_level: dict[tuple, EpsLaurent] = {}
        lo_b = int(floor_b) if floor_b != NEG_INF else (min(levels) if levels else 0)
        for e in range(top_b, lo_b - 1, -1):
            nxt: dict[tuple, EpsLaurent] = {}
            for t, v in levels.get(e, {}).items():
                tt = list(t)
                tt[b] = e - 1
                nxt[tuple(tt)] = v
            for t, v in q_level.items():
                tt = list(t)
                tt[b] = e - 1
                tt[a] += 1
                key = tuple(tt)
                nxt[key] = nxt[key] + v if key in nxt else v
            q_level = {t: v for t, v in nxt.items() if v}
            out.update(q_level)
        lo = list(self.lo)
        if lo[b] != NEG_INF:
            lo[b] = lo[b] - 1
        hi = list(self.hi)
        hi[b] = self.hi[b] - 1
        r = self._like(lo, _floor_plus(self.lo_tot, -1), hi, self.hi_tot - 1)
        r.c = out
        return r

    def truncate_total(self, min_total: int) -> "MultiSeries":
        """Drop tuples whose total exponent is below min_total."""
        r = self._like(self.lo, max(self.lo_tot, min_total), self.hi, self.hi_tot)
        r.c = {t: v for t, v in self.c.items() if sum(t) >= min_total}
        return r

    def __repr__(self) -> str:
        items = sorted(self.c.items())[:8]
        body = ", ".join(f"{t}: {v}" for t, v in items)
        more = "" if len(self.c) <= 8 else f", ... ({len(self.c)} terms)"
        return f"MultiSeries[{body}{more}; lo={self.lo}, lo_tot={self.lo_tot}]"
