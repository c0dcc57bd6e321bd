"""The GW/H free energy: the residue route on every multiset, and the checks that catch a
wrong series."""

from fractions import Fraction
from math import factorial, prod

import pytest

from gwp1 import hurwitz
from gwp1.epslaurent import ZERO
from gwp1.hurwitz import free_energy, gwh_invariant
from gwp1.invariants import n_point_invariant
from gwp1.miwa import partitions


@pytest.mark.parametrize("max_weight, count", [(8, 66), (12, 271)])
def test_residue_route_matches_free_energy_through_weight(max_weight, count):
    fe = free_energy(max_weight)
    cases = {tuple(sorted(m - 1 for m in mu))
             for w in range(1, max_weight + 1) for mu in partitions(w)}
    assert set(fe) < cases and len(cases) == count
    for ks in sorted(cases):
        value = n_point_invariant(ks).value
        if sum(ks) % 2:
            assert not value and ks not in fe, ks
        else:
            aut = prod(factorial(ks.count(k)) for k in set(ks))
            assert value == fe[ks] * aut, ks


def test_gwh_invariant_matches_free_energy_through_weight_10():
    # the two callers of one engine on different lattices: the sub-multisets of one mu, and
    # every mu of weight <= 10
    fe = free_energy(10)
    cases = {tuple(sorted(m - 1 for m in mu)) for w in range(2, 11) for mu in partitions(w)
             if mu[-1] > 1}
    assert len(cases) == 41
    for ks in sorted(cases):
        value = gwh_invariant(ks)
        assert value == fe.get(ks, ZERO) * prod(factorial(ks.count(k)) for k in set(ks)), ks
        assert bool(value) == (sum(ks) % 2 == 0), ks  # odd sum(k) gives 0


def hook_product_by_leg_count(lam):
    """d!/H_lam with each leg counted from the rows below, O(|lam|^2)."""
    return factorial(sum(lam)) // prod(p - j + sum(r > j for r in lam[i + 1:])
                                       for i, p in enumerate(lam) for j in range(p))


def row_sums_over_every_row(lam, m):
    """2^m sum_i [(lam_i - i + 1/2)^m - (-i + 1/2)^m], one term per row of lam."""
    return sum((2 * p - 2 * i - 1) ** m - (-2 * i - 1) ** m for i, p in enumerate(lam))


def test_conjugate_helpers_match_the_row_by_row_sums():
    # the hooks through lam' and the Frobenius row sums, on every lam with |lam| <= 13
    lams = [lam for w in range(14) for lam in partitions(w)]
    assert len(lams) == 373
    for lam in lams:
        conj = hurwitz._conjugate(lam)
        assert conj == [sum(p > j for p in lam) for j in range(lam[0] if lam else 0)], lam
        assert hurwitz._dimension(lam, conj) == hook_product_by_leg_count(lam), lam
        for m in range(9):
            assert hurwitz._row_sums(lam, conj, m) == row_sums_over_every_row(lam, m), (lam, m)


# the mutants act on the integer helpers: the weight dim_lam^2 / d!^2, dim_lam = d!/H_lam, and
# P_m(lam) = (_row_sums(lam, lam', m) bd - n) / (2^m bd), n/bd = (2^m - 1) B_(m+1)/(m+1)
MUTANTS = {
    "weight 1/H^4": (  # (d!/H)^4 over d!^2
        "_dimension", lambda f: lambda lam, conj: f(lam, conj) ** 2),
    "last row of lam dropped": (
        "_row_sums", lambda f: lambda lam, conj, m: f(lam[:-1], hurwitz._conjugate(lam[:-1]), m)),
    "p_m off by 2^-20 on |lam| = 3": (  # off by 2^-20 of its row sums
        "_row_sums",
        lambda f: lambda lam, conj, m:
        f(lam, conj, m) * (1 + Fraction(1, 2**20) * (sum(lam) == 3))),
    "zeta(-m) sign flipped": ("bernoulli_number", lambda f: lambda n: -f(n)),
    "1/2 shift dropped": (
        "_row_sums",
        lambda f: lambda lam, conj, m:
        2**m * sum((p - i) ** m - (-i) ** m for i, p in enumerate(lam, 1))),
    "lam for lam' in the Frobenius leg": (
        "_row_sums", lambda f: lambda lam, conj, m: f(lam, lam, m)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_free_energy_checks_catch_a_wrong_series(monkeypatch, name):
    helper, mutate = MUTANTS[name]
    monkeypatch.setattr(hurwitz, helper, mutate(getattr(hurwitz, helper)))
    with pytest.raises(RuntimeError):
        free_energy(12)
