"""Symmetric functions of 1/z_1..1/z_N and the change to scaled time variables.

The time variables are t_k = (k!/eps^k) * sum_j z_j^(-k-1), i.e. the power sum
p_m = sum_j z_j^(-m) corresponds to eps^(m-1) t_(m-1) / (m-1)!.  Symmetric
series are handled in the power-sum basis, keyed by partitions mu (descending
tuples, p_mu = prod_i p_(mu_i)), which is faithful while the number of
variables exceeds the weight.

Schur functions enter through the characters of the symmetric group:
s_lam = sum_(mu |- |lam|) chi^lam_mu p_mu / z_mu, with chi^lam_mu from the
Murnaghan-Nakayama rule (Macdonald, Symmetric Functions, I.7) and
z_mu = prod_i i^(m_i) m_i! for mu with m_i parts equal to i.  In monomials,
s_lam = sum_nu K_(lam,nu) m_nu with the Kostka numbers K.

The logarithm of a series 1 + (terms of weight >= 1) is taken in the graded
ring of power-sum monomials: with F = log T and the Euler operator (weight w
part times w), D T = T * D F gives
F_w = T_w - (1/w) sum_(k=1..w-1) k F_k T_(w-k), one product of graded pieces
per pair of weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .epslaurent import EpsLaurent

PowerSums = dict[tuple[int, ...], EpsLaurent]  # partition mu -> coefficient of p_mu


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


@lru_cache(maxsize=None)
def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam at cycle type mu (|lam| = |mu|), by Murnaghan-Nakayama.

    Removing a border strip of length r from lam moves one beta-number
    b = lam_i + (len(lam) - i) down to a free b - r; the strip's height is the
    number of beta-numbers jumped over.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [part + n - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        height = sum(b - r < c < b for c in beta)
        moved = sorted((b - r if c == b else c for c in beta), reverse=True)
        nu = tuple(p for i, c in enumerate(moved) if (p := c - (n - 1 - i)))
        total += (-1) ** height * character(nu, rest)
    return total


def z_mu(mu: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    out = 1
    for part, mult in Counter(mu).items():
        out *= part ** mult * factorial(mult)
    return out


def schur_to_power_sums(coeffs: dict[tuple[int, ...], EpsLaurent]) -> PowerSums:
    """sum_lam c_lam s_lam rewritten as sum_mu d_mu p_mu."""
    out: PowerSums = {}
    for lam, c in coeffs.items():
        for mu in partitions(sum(lam)):
            chi = character(lam, mu)
            if chi:
                term = c * Fraction(chi, z_mu(mu))
                out[mu] = out[mu] + term if mu in out else term
    return {mu: v for mu, v in out.items() if v}


@lru_cache(maxsize=None)
def kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """K_(lam,mu): semistandard tableaux of shape lam and content mu.

    The boxes holding the largest entry form a horizontal strip of mu[-1]
    boxes; removing it leaves a shape nu interlacing lam.
    """
    if not mu:
        return int(not lam)
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, part + 1)
              for i, part in enumerate(lam)]
    return sum(
        kostka(tuple(p for p in nu if p), mu[:-1])
        for nu in product(*ranges) if sum(nu) == sum(lam) - mu[-1]
    )


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
                sum(m - 1 for m in mu), Fraction(1, prod_factorials(mu))
            )
            out[tuple(sorted(m - 1 for m in mu))] = v * scale
    return MiwaPolynomial(out, degree)


def prod_factorials(mu) -> int:
    p = 1
    for m in mu:
        p *= factorial(m - 1)
    return p
