"""Symmetric functions of 1/z_1..1/z_N and the change to scaled time variables.

The time variables are t_k = (k!/eps^k) * sum_j z_j^(-k-1), i.e. the power sum
p_m = sum_j z_j^(-m) corresponds to eps^(m-1) t_(m-1) / (m-1)!.  Symmetric
series are handled in the power-sum basis, keyed by partitions mu (descending
tuples, p_mu = prod_i p_(mu_i)), which is faithful while the number of
variables exceeds the weight.

Schur functions change basis by strip removal on Maya diagrams, the fermionic
Murnaghan-Nakayama rule (Macdonald, Symmetric Functions, I.5-I.7; Miwa-Jimbo-Date,
Solitons, ch. 9): s_lam = sum_(mu |- |lam|) chi^lam_mu p_mu / z_mu, chi^lam_mu the
signed count of ways to remove border strips of mu_1, mu_2, ... boxes and
z_mu = prod_i i^(m_i) m_i! for m_i parts equal to i; s_lam = sum_nu K_(lam,nu) m_nu,
the Kostka number K counting horizontal strips instead.  One walk serves both.

The logarithm of a series 1 + (terms of weight >= 1) is taken in the graded
ring of power-sum monomials: with F = log T and the Euler operator (weight w
part times w), D T = T * D F gives
F_w = T_w - (1/w) sum_(k=1..w-1) k F_k T_(w-k), one product of graded pieces
per pair of weights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import NamedTuple

from .epslaurent import EpsLaurent

PowerSums = dict[tuple[int, ...], EpsLaurent]  # partition mu -> coefficient of p_mu


def partitions(w: int):
    """Partitions of w as descending tuples, in reverse lexicographic order, from one list edited
    in place (Zoghbi-Stojmenovic 1998): the last part above 1 gives up a box, and that part and
    the 1s after it refill greedily with parts of its new size."""
    parts = [w] if w else []
    h = 0 if w > 1 else -1  # index of the last part above 1
    yield tuple(parts)
    while h >= 0:
        r = parts[h] - 1
        q, rem = divmod(len(parts) - h, r)  # the box given up and the 1s after parts[h]
        parts[h:] = [r] * (q + 1) + ([rem] if rem else [])
        h = len(parts) - 1 if rem > 1 else h + q if r > 1 else h - 1
        yield tuple(parts)


class MiwaPolynomial(NamedTuple):
    """Polynomial in the time variables t_k, keyed by sorted index multisets."""

    coeffs: dict[tuple[int, ...], EpsLaurent]
    degree: int  # grading deg t_k = k+1

    def coeff(self, ks) -> EpsLaurent:
        return self.coeffs.get(tuple(sorted(ks)), EpsLaurent.zero())

    def to_json(self) -> dict[str, dict[str, str]]:
        return {
            ",".join(map(str, ks)): v.to_json()
            for ks, v in sorted(self.coeffs.items())
        }


def z_mu(mu: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation of cycle type mu, prod_i i^(m_i) m_i!.
    The parts are counted on the tuple: a first Counter in a process walks the Mapping ABC."""
    return prod(part ** mu.count(part) * factorial(mu.count(part)) for part in set(mu))


def _border_strips(lam: tuple[int, ...], m: int):
    """(nu, sign) for each border strip of m boxes removed from lam: on the
    beta-numbers b = lam_i + (len(lam) - i), one bead moves from b down to a
    free b - m >= 0, with sign (-1)^(beads jumped over)."""
    n = len(lam)
    beta = {part + n - 1 - i for i, part in enumerate(lam)}
    for b in beta:
        if b >= m and b - m not in beta:
            moved = sorted(beta - {b} | {b - m}, reverse=True)
            yield (tuple(p for i, c in enumerate(moved) if (p := c - n + 1 + i)),
                   (-1) ** sum(b - m < c < b for c in beta))


def _horizontal_strips(lam: tuple[int, ...], m: int):
    """(nu, 1) for each nu interlacing lam (lam_(i+1) <= nu_i <= lam_i) with
    |lam| - |nu| = m: the horizontal strips of m boxes."""
    for nu in product(*(range(low, part + 1) for part, low in zip(lam, lam[1:] + (0,)))):
        if sum(nu) == sum(lam) - m:
            yield tuple(p for p in nu if p), 1


def _strip_sums(coeffs: dict, strips, mu: tuple[int, ...] = ()) -> dict:
    """{mu: v_mu} over partitions mu, v_mu != 0 the coefficient of () once strips
    of mu_1, mu_2, ... boxes are removed from sum_lam c_lam lam.  The walk is
    depth-first over mu, parts largest first; a call extends the prefix mu by
    one removal step on the whole vector, so a prefix is applied once for every lam."""
    vec = {lam: c for lam, c in coeffs.items() if c}
    out = {mu: vec[()]} if () in vec else {}
    top = max(map(sum, vec), default=0)
    for m in range(min(mu[-1], top) if mu else top, 0, -1):
        nxt = {}
        for lam, c in vec.items():
            for nu, sign in strips(lam, m):
                t = c if sign > 0 else -c
                nxt[nu] = nxt[nu] + t if nu in nxt else t
        out.update(_strip_sums(nxt, strips, mu + (m,)))
    return out


def schur_to_power_sums(coeffs: dict[tuple[int, ...], EpsLaurent]) -> PowerSums:
    """sum_lam c_lam s_lam as sum_mu d_mu p_mu, d_mu = sum_lam c_lam chi^lam_mu / z_mu."""
    return {mu: v * Fraction(1, z_mu(mu))
            for mu, v in _strip_sums(coeffs, _border_strips).items()}


def schur_to_monomials(coeffs: dict[tuple[int, ...], EpsLaurent]) -> dict:
    """sum_lam c_lam s_lam as sum_nu e_nu m_nu, e_nu = sum_lam c_lam K_(lam,nu)."""
    return _strip_sums(coeffs, _horizontal_strips)


def log_power_sums(series: PowerSums, degree: int) -> PowerSums:
    """log(series) up to weight `degree`; the weight-0 term must be 1."""
    if series.get(()) != EpsLaurent.one():
        raise RuntimeError("series does not have constant term 1")
    graded: list[PowerSums] = [{} for _ in range(degree + 1)]
    for mu, v in series.items():
        if 0 < sum(mu) <= degree:
            graded[sum(mu)][mu] = v
    logs: list[PowerSums] = [{} for _ in range(degree + 1)]
    for w in range(1, degree + 1):
        acc = dict(graded[w])
        for k in range(1, w):
            for mu, f in logs[k].items():
                fk = f * Fraction(-k, w)
                for nu, t in graded[w - k].items():
                    key = tuple(sorted(mu + nu, reverse=True))
                    p = fk * t
                    acc[key] = acc[key] + p if key in acc else p
        logs[w] = {mu: v for mu, v in acc.items() if v}
    return {mu: v for part in logs for mu, v in part.items()}


def power_sums_to_times(series: PowerSums, degree: int) -> MiwaPolynomial:
    """Substitute p_m = eps^(m-1) t_(m-1) / (m-1)! (parts of mu -> indices of t)."""
    out = {}
    for mu, v in series.items():
        if v and mu:
            scale = EpsLaurent.mono(
                sum(m - 1 for m in mu), Fraction(1, prod(factorial(m - 1) for m in mu))
            )
            out[tuple(sorted(m - 1 for m in mu))] = v * scale
    return MiwaPolynomial(out, degree)

