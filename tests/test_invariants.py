"""Stationary descendent invariants: frozen values, structure, properties."""

import re
from fractions import Fraction
from itertools import permutations
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gwp1 import invariants, waves
from gwp1.epslaurent import ONE, ZERO, EpsLaurent
from gwp1.invariants import (
    InvariantRecord,
    _cycle_sum,
    _one_point_closed_form,
    _weight,
    invariant_by_genus,
    n_point_invariant,
)
from gwp1.hurwitz import free_energy, gwh_invariant
from gwp1.miwa import partitions
from gwp1.waves import s1_series
from gwp1.zmodel import zmodel_expansion

from conftest import affine_reader


def eps(pairs):
    return EpsLaurent({e: Fraction(v) for e, v in pairs.items()})


def test_one_point_values():
    assert n_point_invariant((0,)).value == eps({-2: 1, 0: "-1/24"})
    assert n_point_invariant((1,)).value == EpsLaurent.zero()
    assert n_point_invariant((2,)).value == eps({-2: "1/4", 0: "1/24", 2: "7/5760"})
    with pytest.raises(ValueError):
        n_point_invariant((-1,))


def test_one_point_trace_matches_derivative_pairing():
    # the diagonal of the affine coordinates is -eps times the one-point series
    for k in range(11):
        weight = EpsLaurent.mono(k + 1, Fraction(1, factorial(k + 1)))
        expected = weight * s1_series(k + 3).coeff(-k - 2)
        assert n_point_invariant((k,)).value == expected, k


def test_one_point_record():
    # the record is the query and its checked trace, nothing else
    assert n_point_invariant((2,)) == InvariantRecord((2,), -_weight((2,)) * _cycle_sum((2,)))


def test_two_point_values():
    assert n_point_invariant((0, 0)).value == eps({-2: 1})
    assert n_point_invariant((0, 1)).value == EpsLaurent.zero()
    assert n_point_invariant((1, 1)).value == eps({-2: "1/2"})
    assert n_point_invariant((2, 2)).value == eps({-2: "1/3", 0: "1/6", 2: "1/576"})


def test_divisor_like_cross_check():
    # <tau_0 tau_2> agrees with the independent frozen evaluation
    assert n_point_invariant((0, 2)).value == eps({-2: "1/2", 0: "1/24"})


def test_three_point_values():
    assert n_point_invariant((0, 0, 0)).value == eps({-2: 1})
    assert n_point_invariant((0, 1, 2)).value == EpsLaurent.zero()


def test_tau_0_insertions_by_the_divisor_equation():
    # every tau_0 multiplies the genus-g term by the degree d = (sum k - 2g + 2)/2, so a
    # degree-0 term drops out: <tau_0> at genus 1 and <tau_2> at genus 2
    assert n_point_invariant((0,)).value == eps({-2: 1, 0: "-1/24"})
    assert n_point_invariant((0, 0, 0, 0)).value == eps({-2: 1})
    assert invariant_by_genus((2,))[2] == Fraction(7, 5760)
    assert invariant_by_genus((0, 2)) == {0: Fraction(1, 2), 1: Fraction(1, 24)}
    assert invariant_by_genus((0, 0, 2)) == {0: Fraction(1), 1: Fraction(1, 24)}
    assert n_point_invariant((0, 3, 0, 1)).ks == (0, 3, 0, 1)


@pytest.fixture
def uncached():
    n_point_invariant.cache_clear()
    yield
    n_point_invariant.cache_clear()


def test_tau_0_insertions_trace_their_base_once(uncached):
    n_point_invariant((0, 2))
    n_point_invariant((0, 0, 2))
    n_point_invariant((2,))
    info = n_point_invariant.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_every_call_form_of_one_query_shares_one_cache_entry(uncached):
    first = n_point_invariant((2,))
    for rec in (n_point_invariant([2]), n_point_invariant(k for k in (2,)),
                n_point_invariant(range(2, 3)), n_point_invariant(ks=(2,)),
                n_point_invariant((IntLike(2),))):
        assert rec is first
    info = n_point_invariant.cache_info()
    assert (info.misses, info.hits) == (1, 5)


class IntLike:
    """An integer that is not an int, such as a numpy integer."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


@pytest.mark.parametrize("ks", [(1.9,), ("2",), (2.0,), (Fraction(2),), [0, 2.5]])
def test_non_integral_ks_are_rejected(uncached, ks):
    with pytest.raises(TypeError, match=re.escape(f"ks must be integers, got ks={ks!r}")):
        n_point_invariant(ks)
    assert n_point_invariant.cache_info().currsize == 0


def multisets(max_n, max_weight, firsts):
    """Sorted ks, least entry in firsts, at most max_n entries and sum(k+2) <= max_weight."""
    out = [(k,) for k in firsts]
    for ks in out:
        if len(ks) < max_n:
            for k in range(ks[-1], max_weight):
                if sum(j + 2 for j in ks) + k + 2 <= max_weight:
                    out.append(ks + (k,))
    return out


def test_derived_tau_0_values_match_their_traces():
    cases = multisets(5, 12, [0])
    assert len(cases) == 41
    for ks in cases:
        assert n_point_invariant(ks).value == -_weight(ks) * _cycle_sum(ks), ks


def epslaurent_edge(aff, forward, x, y):
    """G(x, y) of an edge u -> v as an EpsLaurent, a(x, y) read through aff."""
    if x + y != -1:
        return aff(x, y)
    if forward:
        return ONE if x < 0 else ZERO
    return ZERO if x < 0 else -ONE


def epslaurent_cycle_sum(ks, aff):
    """The cycle trace in EpsLaurent arithmetic, every edge read through the reader aff."""
    n = len(ks)
    c = [-k - 2 for k in ks]
    edge_lo = sum(c) + n - 1
    total = ZERO
    for rest in permutations(range(1, n)):
        cyc = (0,) + rest
        for x0 in range(c[0] + 1, 0):
            partial = {x0: ONE}
            for u, v in zip(cyc, cyc[1:] + (0,)):
                nxt = {}
                for xu, p in partial.items():
                    xvs = range(xu + c[v] + 1, xu + c[v] - edge_lo + 1) if v else (x0,)
                    for xv in xvs:
                        g = epslaurent_edge(aff, u < v, xu, c[v] - xv)
                        if g:
                            nxt[xv] = nxt.get(xv, ZERO) + p * g
                partial = nxt
            total = total + partial.get(x0, ZERO)
    return total


def test_integer_cycle_sum_matches_epslaurent_loop():
    # every distinct ordering: each puts a different k at vertex 0 and merges different paths
    multis = multisets(5, 12, range(11))
    cases = [traced for ks in multis for traced in sorted(set(permutations(ks)))]
    assert (len(multis), len(cases)) == (75, 231)
    for traced in cases:
        assert _cycle_sum(traced) == epslaurent_cycle_sum(traced, affine_reader()), traced


def test_cycle_sum_vanishes_on_odd_weight():
    # the kernel's own parity, which the selection rule of n_point_invariant no longer traces
    odd = [ks for ks in multisets(5, 12, range(11)) if sum(ks) % 2]
    assert len(odd) == 29
    for ks in odd:
        assert _cycle_sum(ks) == ZERO, ks


def test_odd_weight_is_zero_before_any_work(uncached):
    ks = (2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    with mock.patch("gwp1.invariants._cycle_sum") as trace, \
            mock.patch("gwp1.invariants.gwh_invariant") as gwh, \
            mock.patch("gwp1.invariants._one_point_closed_form") as closed_form, \
            mock.patch.object(waves._Rows, "grow") as grow:
        assert n_point_invariant(ks) == InvariantRecord(ks, ZERO)
    assert trace.call_count == gwh.call_count == closed_form.call_count == grow.call_count == 0


def test_cycle_sum_reads_no_zero_entries_off_the_bracket(monkeypatch):
    # a(x, y) = 0 for x >= 0, so from x >= 0 only the bracket on x + y = -1 is read
    edge, reads = invariants._edge, []

    def recording_edge(diagonals, den, forward, x, y):
        reads.append((x, y))
        return edge(diagonals, den, forward, x, y)

    monkeypatch.setattr(invariants, "_edge", recording_edge)
    ks = (1, 1, 2, 1, 1)
    value = _cycle_sum(ks)
    assert any(x >= 0 for x, _ in reads)
    assert all(x + y == -1 for x, y in reads if x >= 0)
    monkeypatch.undo()
    assert value == epslaurent_cycle_sum(ks, affine_reader())


def test_one_point_closed_form_matches_trace():
    for k in range(15):
        assert _one_point_closed_form(k) == -_weight((k,)) * _cycle_sum((k,)), k


def forward_boundary_moved(diagonals, den, forward, x, y):
    if x + y != -1:
        return diagonals[x + y].get(x, {}) if x + y < -1 else {}
    if forward:
        return {0: den} if x < -1 else {}
    return {} if x < 0 else {0: -den}


def backward_sign_flipped(diagonals, den, forward, x, y):
    if x + y != -1:
        return diagonals[x + y].get(x, {}) if x + y < -1 else {}
    if forward:
        return {0: den} if x < 0 else {}
    return {} if x < 0 else {0: den}


@pytest.mark.parametrize("mutant", [forward_boundary_moved, backward_sign_flipped])
@pytest.mark.parametrize("ks", [(1, 2), (1, 1), (2, 2, 2), (1, 1, 2, 2), (1, 3)])
def test_check_catches_a_wrong_edge_bracket(uncached, monkeypatch, mutant, ks):
    monkeypatch.setattr(invariants, "_edge", mutant)
    assert -_weight(ks) * _cycle_sum(ks) != gwh_invariant(ks)  # the trace runs, and is wrong
    if sum(ks) % 2:  # the selection rule returns 0 without tracing
        assert n_point_invariant(ks).value == ZERO
        return
    with pytest.raises(RuntimeError, match="failed its check"):
        n_point_invariant(ks)


def transposed_read(diagonals, den, forward, x, y):
    if x + y != -1:
        return diagonals[x + y].get(y, {}) if x + y < -1 else {}
    if forward:
        return {0: den} if x < 0 else {}
    return {} if x < 0 else {0: -den}


@pytest.mark.parametrize("ks", [(1, 3), (3, 1), (2, 1, 1), (1, 1, 2, 2)])
def test_check_catches_a_transposed_read(uncached, monkeypatch, ks):
    # a(y, x) read for a(x, y) moves these values (not that of (1, 2)); the GW/H value sees it
    value = n_point_invariant(ks).value
    n_point_invariant.cache_clear()
    monkeypatch.setattr(invariants, "_edge", transposed_read)
    assert -_weight(ks) * _cycle_sum(ks) != value
    with pytest.raises(RuntimeError, match="failed its check"):
        n_point_invariant(ks)


def top_genus_off(f):
    """f with the coefficient of its top genus term, eps^k of <tau_k>, moved."""

    def wrong(*args):
        return f(*args) + EpsLaurent.mono(0 if f is _cycle_sum else args[0], Fraction(1, 7))

    return wrong


@pytest.mark.parametrize("name", ["_cycle_sum", "_one_point_closed_form"])
@pytest.mark.parametrize("ks", [(2,), (4,)])
def test_check_catches_a_wrong_one_point_coefficient(uncached, monkeypatch, name, ks):
    monkeypatch.setattr(invariants, name, top_genus_off(getattr(invariants, name)))
    with pytest.raises(RuntimeError, match="failed its check"):
        n_point_invariant(ks)


def test_bad_inputs():
    with pytest.raises(ValueError):
        n_point_invariant((-1, 0))
    with pytest.raises(ValueError):
        n_point_invariant(())


def test_by_genus_decoding():
    table = invariant_by_genus((0,))
    assert table == {0: Fraction(1), 1: Fraction(-1, 24)}
    t2 = invariant_by_genus((2,))
    assert t2[0] == Fraction(1, 4) and t2[2] == Fraction(7, 5760)


def test_free_energy_weight_3():
    fe = free_energy(3)
    assert fe[(0,)] == eps({-2: 1, 0: "-1/24"})
    assert fe[(0, 0)] == eps({-2: "1/2"})
    assert fe[(0, 0, 0)] == eps({-2: "1/6"})
    assert fe[(2,)] == eps({-2: "1/4", 0: "1/24", 2: "7/5760"})
    assert (1,) not in fe and (0, 1) not in fe  # parity-vanishing entries dropped
    assert set(fe) <= {(0,), (0, 0), (0, 0, 0), (1,), (0, 1), (2,)}


def test_free_energy_weight_4_matches_determinantal_route():
    assert free_energy(4) == zmodel_expansion(5, 4).log_in_times.coeffs


def test_cycle_sum_window(monkeypatch):
    # edge reads reach z^(n - sum(k+2)): z^-6 for (2, 2), z^-4 for (3,); the rows grow to there,
    # and a table grown deeper gives the same trace
    for ks in ((2, 2), (3,)):
        order = sum(k + 2 for k in ks) - len(ks)
        monkeypatch.setattr(waves, "_ROWS", rows := waves._Rows())
        value = _cycle_sum(ks)
        assert len(rows.dens) == order + 1
        monkeypatch.setattr(waves, "_ROWS", deeper := waves._Rows())
        deeper.grow(order + 4)
        assert _cycle_sum(ks) == value


small_ks = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=3
).filter(lambda ks: sum(ks) <= 6)


@settings(max_examples=25, deadline=None)
@given(small_ks)
def test_structural_properties(ks):
    rec = n_point_invariant(tuple(sorted(ks)))
    total = sum(ks)
    if total % 2 == 1:
        assert rec.value == EpsLaurent.zero()  # parity vanishing
        assert _cycle_sum(tuple(sorted(ks))) == EpsLaurent.zero()  # and the kernel agrees
        return
    for e in rec.value.exponents():
        assert e % 2 == 0  # even eps-exponents only
        # e = 2g-2 with genus g >= 0 and degree d = total/2 + 1 - g >= 0
        assert -2 <= e <= total


@settings(max_examples=10, deadline=None)
@given(st.permutations([0, 0, 2]))
def test_permutation_symmetry(perm):
    base = n_point_invariant((0, 0, 2)).value
    assert n_point_invariant(tuple(perm)).value == base


def lambda_g_integrals(top):
    """b_0..b_top, sum_g b_g t^(2g) = (t/2)/sin(t/2) (Faber-Pandharipande), by inverting
    sin(t/2)/(t/2) = sum_j (-1)^j u^j / (4^j (2j+1)!), u = t^2, as a Fraction series."""
    s = [Fraction((-1) ** j, 4**j * factorial(2 * j + 1)) for j in range(top + 1)]
    b = [Fraction(1)]
    for g in range(1, top + 1):
        b.append(-sum(s[j] * b[g - j] for j in range(1, g + 1)))
    return b


DEGREE_0_WEIGHT = 8


@pytest.fixture(scope="module")
def determinantal_log():
    return zmodel_expansion(DEGREE_0_WEIGHT + 1, DEGREE_0_WEIGHT).log_in_times


def test_degree_zero_values_on_both_routes(determinantal_log):
    # degree 0 sits at eps^(sum k): it vanishes for n >= 2, and for n = 1, k = 2g - 2, it is
    # (-1)^g b_g, the lambda_g integral
    b = lambda_g_integrals(DEGREE_0_WEIGHT // 2)
    signed = [(-1) ** g * b[g] for g in range(1, 5)]
    assert signed == [Fraction(-1, 24), Fraction(7, 5760), Fraction(-31, 967680),
                      Fraction(127, 154828800)]
    cases = {tuple(sorted(m - 1 for m in mu))
             for w in range(1, DEGREE_0_WEIGHT + 1) for mu in partitions(w)}
    assert len(cases) == 66
    for ks in sorted(cases):
        total = sum(ks)
        if len(ks) == 1 and total % 2 == 0:
            want = signed[total // 2]
        else:
            want = 0
        assert n_point_invariant(ks).value[total] == want, ks
        assert determinantal_log.coeff(ks)[total] == want, ks


def test_determinantal_logarithm_has_parity_and_genus_bounds(determinantal_log):
    # the bounds of test_structural_properties on a route that no genus floor prunes
    assert len(determinantal_log.coeffs) > 10
    for ks, value in determinantal_log.coeffs.items():
        total = sum(ks)
        assert total % 2 == 0 and value, ks  # parity vanishing: odd sum(k) is not stored
        for e in value.exponents():
            assert e % 2 == 0 and -2 <= e <= total, (ks, e)
