"""Symmetric functions: the Schur basis changes against per-pair characters
and Kostka numbers, the power-sum logarithm and the change to time variables."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from gwp1.epslaurent import EpsLaurent
from gwp1.miwa import (
    MiwaPolynomial,
    log_power_sums,
    partitions,
    power_sums_to_times,
    schur_to_monomials,
    schur_to_power_sums,
    z_mu,
)
from gwp1.zmodel import plucker_coordinates, zmodel_expansion

ONE = EpsLaurent.one()


@lru_cache(maxsize=None)
def character(lam, mu):
    """chi^lam at cycle type mu (|lam| = |mu|), by the Murnaghan-Nakayama
    recursion on beta-numbers, one (lam, mu) pair at a time."""
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


@lru_cache(maxsize=None)
def kostka(lam, mu):
    """K_(lam,mu) by removing a horizontal strip of mu[-1] boxes, one pair at a time."""
    if not mu:
        return int(not lam)
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, part + 1)
              for i, part in enumerate(lam)]
    return sum(
        kostka(tuple(p for p in nu if p), mu[:-1])
        for nu in product(*ranges) if sum(nu) == sum(lam) - mu[-1]
    )


def reference_sums(coeffs, pair):
    """{mu: sum_lam c_lam pair(lam, mu)} over mu |- |lam|, zeros dropped."""
    out = {}
    for lam, c in coeffs.items():
        for mu in partitions(sum(lam)):
            out[mu] = out.get(mu, 0) + c * pair(lam, mu)
    return {mu: v for mu, v in out.items() if v}


def reference_power_sums(coeffs):
    return {mu: v * Fraction(1, z_mu(mu))
            for mu, v in reference_sums(coeffs, character).items()}


def test_partitions():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(0)) == [()]


def recursive_partitions(w, max_part=None):
    """The descending partitions of w, parts at most max_part, largest first part first."""
    if max_part is None:
        max_part = w
    if w == 0:
        yield ()
        return
    for first in range(min(w, max_part), 0, -1):
        for rest in recursive_partitions(w - first, first):
            yield (first,) + rest


def test_partitions_match_recursive_order():
    for w in range(21):
        assert list(partitions(w)) == list(recursive_partitions(w)), w


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

def _pmul(a, b):
    out = {}
    for mu, x in a.items():
        for nu, y in b.items():
            key = tuple(sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _h(n):
    """Complete symmetric function h_n = sum_mu p_mu / z_mu (zero for n < 0)."""
    if n < 0:
        return {}
    return {mu: Fraction(1, z_mu(mu)) for mu in partitions(n)}


def jacobi_trudi(lam):
    """s_lam = det(h_(lam_i - i + j)) in the power-sum basis."""
    n = len(lam)
    total = {}
    for sigma in permutations(range(n)):
        sign = (-1) ** sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        term = {(): Fraction(sign)}
        for i in range(n):
            term = _pmul(term, _h(lam[i] - i + sigma[i]))
            if not term:
                break
        for mu, v in term.items():
            total[mu] = total.get(mu, 0) + v
    return {k: v for k, v in total.items() if v}


@pytest.mark.parametrize("w", range(7))
def test_characters_match_jacobi_trudi(w):
    for lam in partitions(w):
        s = jacobi_trudi(lam)
        for mu in partitions(w):
            assert character(lam, mu) == s.get(mu, 0) * z_mu(mu)


def test_s4_character_table():
    mus = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in table.items():
        assert [character(lam, mu) for mu in mus] == row


def test_kostka_numbers():
    for w in range(7):
        for lam in partitions(w):
            # content (1^w): standard tableaux, counted by chi^lam at the identity
            assert kostka(lam, (1,) * w) == character(lam, (1,) * w)
            assert kostka(lam, lam) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1, 1), (2, 1)) == 0  # lam must dominate the content


# ---------------------------------------------------------------------------
# The strip-removal walk against the per-pair sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(11))
def test_walk_matches_per_pair_sums_on_plucker_coordinates(d):
    pi = plucker_coordinates(d)
    assert schur_to_power_sums(pi) == reference_power_sums(pi)
    assert schur_to_monomials(pi) == reference_sums(pi, kostka)


sparse_schur = st.dictionaries(
    st.sampled_from([lam for w in range(9) for lam in partitions(w)]),
    st.fractions(max_denominator=50),
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(sparse_schur)
@example({})
@example({(): Fraction(1)})
@example({(3, 1): Fraction(2), (2, 1, 1): Fraction(-2), (): Fraction(0)})
def test_walk_matches_per_pair_sums_on_sparse_coefficients(coeffs):
    assert schur_to_power_sums(coeffs) == reference_power_sums(coeffs)
    assert schur_to_monomials(coeffs) == reference_sums(coeffs, kostka)


# ---------------------------------------------------------------------------
# Power sums to times: p_m = eps^(m-1) t_(m-1) / (m-1)!
# ---------------------------------------------------------------------------

def test_single_power_sum():
    # p_1 = eps^0 t_0 / 0!  ->  coefficient of t_0 is 1
    out = power_sums_to_times({(1,): ONE}, 2)
    assert out.coeff((0,)) == EpsLaurent.one()
    assert out.coeff((1,)) == EpsLaurent.zero()


def test_p2_lands_on_t1():
    # p_2 = eps^1 t_1 / 1!
    out = power_sums_to_times({(2,): ONE}, 2)
    assert out.coeff((1,)) == EpsLaurent.mono(1)


def test_product_of_power_sums():
    # p_1^2 = t_0^2: its coefficient against the sorted key (0,0) is 1
    out = power_sums_to_times({(1, 1): ONE}, 2)
    assert out.coeff((0, 0)) == EpsLaurent.one()
    assert out.coeff((1,)) == EpsLaurent.zero()


def test_elementary_symmetric_mix():
    # e_2 = s_(1,1) = (p_1^2 - p_2)/2 in the reciprocal variables
    e2 = schur_to_power_sums({(1, 1): ONE})
    half = EpsLaurent.const(Fraction(1, 2))
    assert e2 == {(1, 1): half, (2,): -half}
    out = power_sums_to_times(e2, 2)
    assert out.coeff((0, 0)) == EpsLaurent.const(Fraction(1, 2))
    assert out.coeff((1,)) == EpsLaurent.mono(1, Fraction(-1, 2))


def test_log_power_sums():
    # log(1 + p_1) = p_1 - p_1^2/2 + p_1^3/3 - ...
    out = log_power_sums({(): ONE, (1,): ONE}, 3)
    assert out == {(1,): ONE, (1, 1): EpsLaurent.const(Fraction(-1, 2)),
                   (1, 1, 1): EpsLaurent.const(Fraction(1, 3))}
    # log of an exponential: exp(p_2) to weight 4 is 1 + p_2 + p_2^2/2
    out = log_power_sums({(): ONE, (2,): ONE, (2, 2): EpsLaurent.const(Fraction(1, 2))}, 4)
    assert out == {(2,): ONE}
    with pytest.raises(RuntimeError):
        log_power_sums({(1,): ONE}, 2)  # constant term must be 1


def test_faithfulness_guard():
    # power sums are faithful only while the variable count exceeds the
    # weight: e_3 = s_(1,1,1) is the monomial m_(1,1,1), zero in two variables,
    # yet its power-sum image is not zero
    assert [kostka((1, 1, 1), nu) for nu in partitions(3)] == [0, 0, 1]
    e3 = schur_to_power_sums({(1, 1, 1): ONE})
    assert e3 == {
        (1, 1, 1): EpsLaurent.const(Fraction(1, 6)),
        (2, 1): EpsLaurent.const(Fraction(-1, 2)),
        (3,): EpsLaurent.const(Fraction(1, 3)),
    }
    assert power_sums_to_times(e3, 3).coeffs
    # so the determinantal route needs nvars > degree
    with pytest.raises(ValueError):
        zmodel_expansion(2, 2)


def test_miwa_polynomial_api():
    p = MiwaPolynomial({(0, 1): EpsLaurent.one()}, 3)
    assert p.coeff((1, 0)) == EpsLaurent.one()
    assert p.coeff((2,)) == EpsLaurent.zero()
    assert p.to_json() == {"0,1": {"0": "1"}}
    q = MiwaPolynomial({(0, 1): EpsLaurent.one()}, 3)
    assert p == q


def test_z_mu_against_counter_and_the_class_equation():
    for n in range(13):
        mus = list(partitions(n))
        for mu in mus:
            assert z_mu(mu) == prod(i ** m * factorial(m) for i, m in Counter(mu).items()), mu
        # one over the centralizer order of each cycle type sums to 1 over S_n
        assert sum(Fraction(1, z_mu(mu)) for mu in mus) == 1, n
