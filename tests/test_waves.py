"""Formal wave solutions: difference equation, oracle, quartet identities."""

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gwp1
from gwp1 import waves, zmodel
from gwp1.epslaurent import EpsLaurent
from gwp1.invariants import _cycle_sum, _edge, _weight, n_point_invariant
from gwp1.zmodel import zmodel_expansion
from gwp1.zseries import WindowError, ZSeries
from gwp1.waves import (
    WaveExpansion,
    affine_diagonals,
    bernoulli_number,
    normalized_quartet,
    s1_series,
    solve_formal_wave,
    step_factor,
    wave_residual,
    wave_shift,
)
from conftest import affine_reader
from test_invariants import epslaurent_cycle_sum
from test_zmodel import normalised_frame


def test_package_exports_resolve():
    missing = [name for name in gwp1.__all__ if not hasattr(gwp1, name)]
    assert not missing


def eps(pairs):
    return EpsLaurent({e: Fraction(v) for e, v in pairs.items()})


def fields(s):
    return s.c, s.top, s.order


def solved_quartet(order):
    """The quartet by the triangular route: two solves, then one shift each."""
    wa = solve_formal_wave(+1, order + 2)
    wb = solve_formal_wave(-1, order + 2)
    return (
        wa.h.truncate(order),
        wave_shift(wa, -1).h.truncate(order),
        wb.h.truncate(order),
        wave_shift(wb, +1).h.truncate(order),
    )


def test_known_f_coefficients():
    h = solve_formal_wave(+1, 3).h
    assert h.coeff(0) == eps({0: 1})
    assert h.coeff(-1) == eps({-2: 1, 0: "-1/24"})
    assert h.coeff(-2) == eps({-4: "1/2", -2: "11/24", 0: "1/1152"})
    assert h.coeff(-3) == eps({-6: "1/6", -4: "47/48", -2: "265/1152", 0: "1003/414720"})


@pytest.mark.parametrize("sigma", [+1, -1])
def test_residual_vanishes(sigma):
    w = solve_formal_wave(sigma, 7)
    res = wave_residual(w, 5)
    for d in range(res.top, -res.order - 1, -1):
        assert res.coeff(d) == EpsLaurent.zero()


def test_bad_inputs():
    with pytest.raises(ValueError):
        solve_formal_wave(0, 4)
    with pytest.raises(ValueError):
        solve_formal_wave(+1, 0)
    with pytest.raises(ValueError):
        normalized_quartet(-1)


def test_closed_waves_match_solver():
    for order in (1, 2, 5, 8, 10, 20):
        for sigma in (+1, -1):
            closed = normalized_quartet(order)[0 if sigma == +1 else 2]
            assert fields(closed) == fields(solve_formal_wave(sigma, order).h), (sigma, order)


def test_quartet_matches_triangular_route():
    for order in range(1, 21):
        assert list(map(fields, normalized_quartet(order))) == list(
            map(fields, solved_quartet(order))
        ), order


def test_quartet_truncates_consistently():
    big = normalized_quartet(24)
    for order in range(24):
        for small, large in zip(normalized_quartet(order), big):
            assert fields(small) == fields(large.truncate(order)), order


@pytest.mark.parametrize("sigma", [+1, -1])
def test_residual_vanishes_on_closed_waves(sigma):
    h = normalized_quartet(9)[0 if sigma == +1 else 2]
    res = wave_residual(WaveExpansion(sigma, h), 7)
    assert res.order == 8 and res.top == 1
    assert res.is_zero()


def kernel_edge_reference(quartet, forward, x, y):
    """The edge factor of a cycle as a two-sided sum of kernel coefficients."""
    a, at, b, bt = quartet

    def kernel(i, j):
        return a.coeff(i) * b.coeff(j) - at.coeff(i) * bt.coeff(j)

    if forward:
        return sum((kernel(x + 1 + m, y - m) for m in range(max(0, y), -x)), EpsLaurent.zero())
    return -sum((kernel(x - m, y + 1 + m) for m in range(max(0, x), -y)), EpsLaurent.zero())


def frame_reference(quartet, k, order):
    """G_k = sum_m z^m ([B]_(m+1-k) A - [Bt]_(m+1-k) At), truncated at z^(-order)."""
    a, at, b, bt = quartet
    acc = ZSeries.zero(order)
    for m in range(k):
        piece = a.scale(b.coeff(m + 1 - k)) - at.scale(bt.coeff(m + 1 - k))
        acc = acc + piece.truncate(order + m).mul_zpow(m)
    return ZSeries(acc.c, top=k - 1, order=order)


def edge_reader(lo):
    """G(x, y) on the diagonals x + y >= lo, by `_edge` over the denominator of a trace."""
    diagonals, den = affine_diagonals(lo, -1)
    return lambda forward, x, y: EpsLaurent.from_ints(_edge(diagonals, den, forward, x, y), den)


def test_affine_coordinates_match_kernel_sums():
    # both sides agree only because K(z, z) = 1
    for order in range(1, 15):
        quartet = normalized_quartet(order)
        edge = edge_reader(-order - 1)
        for x in range(-order - 2, order + 2):
            for y in range(-order - 1 - x, order + 2):
                for forward in (True, False):
                    got = edge(forward, x, y)
                    assert got == kernel_edge_reference(quartet, forward, x, y), (order, x, y)
        for count in range(1, order + 1):
            frame = normalised_frame(count, order - count)
            for k, g in enumerate(frame, 1):
                assert fields(g) == fields(frame_reference(quartet, k, order - count))
        # a read past the quartet's order grows the rows it needs
        deeper = normalized_quartet(order + 1)
        assert affine_reader()(-1, -order - 1) == kernel_edge_reference(
            deeper, True, -1, -order - 1)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


# References for the integer closed form, which must reproduce them exactly: a
# recursive Bernoulli sum, a Fraction exponential for the Stirling series, and
# the column-by-column pass over one common denominator.

@lru_cache(maxsize=None)
def recursive_bernoulli(n):
    if n == 0:
        return Fraction(1)
    # B_n from sum_{k=0}^{n} C(n+1, k) B_k = 0
    s = Fraction(0)
    for k in range(n):
        s += comb(n + 1, k) * recursive_bernoulli(k)
    return -s / (n + 1)


def fraction_stirling_series(order):
    kl = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1, 2):
        kl[k] = (Fraction(1, 2 ** k) - 1) * recursive_bernoulli(k + 1) / (k + 1)
    s = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        s[n] = sum(kl[k] * s[n - k] for k in range(1, n + 1, 2)) / n
    return s


def column_pass_pair(sigma, stirling):
    order = len(stirling) - 1
    den = lcm(*(x.denominator for x in stirling))
    q = [sigma**j * x.numerator * (den // x.denominator) << j for j, x in enumerate(stirling)]
    plain = [{} for _ in range(order + 1)]
    tilde = [{} for _ in range(order + 1)]
    weight = factorial(order)
    for m in range(order + 1):
        if m:
            r = sigma * (2 * m - 1)
            old, new = q[m - 1], 0
            for j in range(m, order + 1):
                old, new = q[j], 2 * old + r * new
                q[j] = new
            for j in range(m, order + 1):
                tilde[j][1 - 2 * m] = weight * q[j]
            weight = weight * sigma // m
        for j in range(m, order + 1):
            plain[j][-2 * m] = weight * q[j]
    den *= factorial(order)
    h = {-j: EpsLaurent.from_ints(plain[j], den << j) for j in range(order + 1)}
    ht = {-j: EpsLaurent.from_ints(tilde[j], den << j) for j in range(order + 1)}
    return ZSeries(h, top=0, order=order), ZSeries(ht, top=-1, order=order)


def epslaurent_affine_reader(order):
    """a(x, y) summed along each diagonal in EpsLaurent arithmetic."""
    a, at, b, bt = normalized_quartet(order)
    diagonals = {}

    def read(x, y):
        s = x + y
        if s < -order - 1:
            raise WindowError(f"a({x}, {y}) below the window of order {order}")
        if s not in diagonals:
            diagonal, acc = {}, EpsLaurent.zero()
            for i in range(-1, s, -1):
                acc = acc + (a.coeff(i + 1) * b.coeff(s - i) - at.coeff(i + 1) * bt.coeff(s - i))
                diagonal[i] = acc
            diagonals[s] = diagonal
        return diagonals[s].get(x, EpsLaurent.zero())

    return read


def test_integer_bernoulli_and_stirling_match_fraction_recursions():
    assert [bernoulli_number(n) for n in range(65)] == [recursive_bernoulli(n) for n in range(65)]
    reference = fraction_stirling_series(48)
    for order in range(49):
        # S is the eps^0 part of A: every other term carries eps^(-2m), m >= 1
        a = normalized_quartet(order)[0]
        assert [a.coeff(-j)[0] for j in range(order + 1)] == reference[:order + 1], order


def test_row_pass_quartet_matches_column_pass():
    for order in range(49):
        stirling = fraction_stirling_series(order)
        reference = column_pass_pair(+1, stirling) + column_pass_pair(-1, stirling)
        assert list(map(fields, normalized_quartet(order))) == list(map(fields, reference)), order


def table_rows(rows):
    return rows.a, rows.dens, rows.t


def test_row_table_is_independent_of_growth_order(monkeypatch):
    straight, stepped = waves._Rows(), waves._Rows()
    straight.grow(48)
    for order in (0, 7, 20, 48):
        stepped.grow(order)
    assert table_rows(stepped) == table_rows(straight)
    # one tangent pass per growth covers every Bernoulli number the rows read
    monkeypatch.setattr(waves, "_ROWS", stepped)
    tangents = stepped.t
    assert [bernoulli_number(n) for n in range(50)] == [recursive_bernoulli(n) for n in range(50)]
    assert stepped.t is tangents
    # Atilde from A's rows, B and Btilde by sign, against both column passes
    stirling = fraction_stirling_series(48)
    reference = column_pass_pair(+1, stirling) + column_pass_pair(-1, stirling)
    quartet = normalized_quartet.__wrapped__(48)
    assert list(map(fields, quartet)) == list(map(fields, reference))
    assert len(stepped.dens) == 49


def test_rows_are_stored_in_lowest_terms(monkeypatch):
    monkeypatch.setattr(waves, "_ROWS", rows := waves._Rows())
    rows.grow(48)
    stirling = fraction_stirling_series(48)
    for j in range(49):
        assert gcd(rows.dens[j], *rows.a[j].values()) == 1, j
        # here the reduced denominator is L_j, the lcm of the denominators of s_0..s_j
        assert rows.dens[j] == lcm(*(x.denominator for x in stirling[:j + 1])), j
    reference = column_pass_pair(+1, stirling) + column_pass_pair(-1, stirling)
    assert list(map(fields, normalized_quartet.__wrapped__(48))) == list(map(fields, reference))


def test_readers_follow_a_swapped_row_table(monkeypatch):
    expected = kernel_edge_reference(normalized_quartet(6), True, -2, -4)
    monkeypatch.setattr(waves, "_ROWS", old := waves._Rows())
    aff = affine_reader()
    aff(-1, -2)
    monkeypatch.setattr(waves, "_ROWS", new := waves._Rows())
    for reader in (aff, affine_reader()):
        assert reader(-2, -4) == expected
    assert len(new.dens) == 6 and set(new.diagonals) == {-6}
    assert len(old.dens) == 3 and set(old.diagonals) == {-3}


@pytest.mark.parametrize("ks", [(3,), (10,), (0, 0), (1, 2), (0, 0, 0), (0, 1, 2),
                                (4,), (1, 3), (0, 1, 3)])
def test_invariant_grows_rows_only_for_the_diagonals_it_reads(fresh_rows, ks):
    # the deepest edge total sum(c) + n - 1 needs rows 0..sum(k+2) - n of the multiset traced,
    # ks without its zeros or (0,); its check, the GW/H value, traces nothing and reads no row;
    # an odd sum(k) is 0 by the selection rule and traces nothing either
    grows_after_pass = []

    def counted_pass(*args):
        value = _cycle_sum(*args)
        grows_after_pass.append(spy.call_count)
        return value

    grow = waves._Rows.grow
    with mock.patch.object(waves._Rows, "grow", autospec=True, side_effect=grow) as spy, \
            mock.patch("gwp1.invariants._cycle_sum", counted_pass):
        n_point_invariant(ks)
    if sum(ks) % 2:
        assert grows_after_pass == [] and spy.call_count == len(fresh_rows.dens) == 0
        return
    traced = tuple(k for k in ks if k) or (0,)
    assert len(grows_after_pass) == 1
    assert grows_after_pass[0] == spy.call_count > 0
    assert len(fresh_rows.dens) == sum(k + 2 for k in traced) - len(traced) + 1


def test_checked_palindrome_grows_the_rows_of_the_unchecked_one(fresh_rows, monkeypatch):
    # the check of the palindrome (2, 2) is its GW/H value, which reads no row: on a fresh
    # table the checked query grows the same rows 0..6 as its trace alone
    _cycle_sum((2, 2))
    assert len(fresh_rows.dens) == 7
    monkeypatch.setattr(waves, "_ROWS", checked := waves._Rows())
    n_point_invariant.cache_clear()
    n_point_invariant((2, 2))
    assert len(checked.dens) == 7


class CountedDiagonals(dict):
    """A row table's diagonals that count the integer diagonal sums stored in them."""

    summed = 0

    def __setitem__(self, s, diagonal):
        assert s not in self
        self.summed += 1
        super().__setitem__(s, diagonal)


def test_each_diagonal_is_summed_once_per_process(fresh_rows):
    fresh_rows.diagonals = CountedDiagonals()
    for ks in ((3,), (1, 2), (2, 1), (2, 2), (1, 1, 2), (0, 1, 2), (4,)):
        n_point_invariant(ks)
    zmodel_expansion(4, 3)
    for order in (6, 12, 24):
        read_every_diagonal(order, shallowest_first=False)
    # every reader read the one table; each diagonal was summed once
    assert set(fresh_rows.diagonals) == set(range(-25, -1))
    assert fresh_rows.diagonals.summed == 24


traced_ks = [(3,), (10,), (1, 2), (2, 2, 2), (1, 1, 2, 2), (0, 0, 1)]


@pytest.mark.parametrize("ks", traced_ks)
def test_affine_coordinates_agree_at_doubled_order_on_every_read_of_a_trace(monkeypatch, ks):
    # how deep the table has grown does not change what a trace reads: every coordinate a
    # trace reads from the rows it grows is read alike from another table grown to twice that
    order = sum(k + 2 for k in ks) + len(ks)
    reads = {}

    def recording_diagonals(lo, hi):
        diagonals, den = affine_diagonals(lo, hi)
        for s, entries in diagonals.items():
            for x in range(s + 1, 0):
                reads[x, s - x] = EpsLaurent.from_ints(entries.get(x, {}), den)
        return diagonals, den

    monkeypatch.setattr(waves, "_ROWS", waves._Rows())
    with mock.patch("gwp1.invariants.affine_diagonals", recording_diagonals):
        _cycle_sum(ks)
    assert reads
    monkeypatch.setattr(waves, "_ROWS", rows := waves._Rows())
    rows.grow(2 * order)
    doubled = affine_reader()
    for x, y in sorted(reads, key=sum):
        assert doubled(x, y) == reads[x, y], (ks, x, y)


def read_every_diagonal(order, shallowest_first):
    aff = affine_reader()
    totals = range(-1, -order - 2, -1) if shallowest_first else range(-order - 1, 0)
    return {(x, s - x): aff(x, s - x) for s in totals for x in range(s + 1, 0)}


def test_reading_order_does_not_change_coordinates(monkeypatch):
    tables = []
    for shallowest_first in (True, False):
        monkeypatch.setattr(waves, "_ROWS", rows := waves._Rows())
        tables.append(read_every_diagonal(20, shallowest_first))
        assert len(rows.dens) == 21
    assert tables[0] == tables[1]
    assert tables[0][(-1, -20)] == kernel_edge_reference(normalized_quartet(20), True, -1, -20)


def test_read_grows_rows_only_to_its_diagonal(fresh_rows):
    # a(x, y) on x + y = s needs A's rows 0..-s-1, whatever reads it
    aff = affine_reader()
    assert len(fresh_rows.dens) == 0
    aff(-1, -2)
    assert len(fresh_rows.dens) == 3
    aff(-4, -5)
    assert len(fresh_rows.dens) == 9
    aff(-2, -1)
    assert len(fresh_rows.dens) == 9


def test_positive_row_power_stops_the_diagonal_sum(fresh_rows):
    # the trace's genus floor drops live terms if a diagonal exponent exceeds 0
    fresh_rows.grow(4)
    fresh_rows.a[3][2] = 1
    with pytest.raises(RuntimeError, match=re.escape("diagonal -5 holds eps^2")):
        affine_diagonals(-5, -5)
    assert -5 not in fresh_rows.diagonals
    affine_diagonals(-3, -2)  # diagonals -3 and -2 read only rows 0 to 2, which are sound


@pytest.mark.parametrize("order", [20, 26])
def test_affine_coordinates_match_kernel_sums_at_recheck_orders(order):
    # quartets far deeper than the diagonals read agree with them
    quartet = normalized_quartet(order)
    edge = edge_reader(-14)
    for s in range(-14, 2):
        for x in range(s - 2, 3):
            for forward in (True, False):
                got = edge(forward, x, s - x)
                assert got == kernel_edge_reference(quartet, forward, x, s - x), (order, x, s)


trace_ks = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=12 - 2 * n), min_size=n, max_size=n)
).filter(lambda ks: sum(k + 2 for k in ks) <= 12)


@settings(max_examples=12, deadline=None)
@given(trace_ks)
def test_cycle_trace_matches_epslaurent_reader(ks):
    ks = tuple(ks)
    order = sum(k + 2 for k in ks) + len(ks)
    expected = -_weight(ks) * epslaurent_cycle_sum(ks, epslaurent_affine_reader(order))
    assert n_point_invariant(ks).value == expected


def test_step_factor_consistency():
    # shifting up then down is the identity on the valid window
    w = solve_formal_wave(+1, 6)
    rt = wave_shift(wave_shift(w, 1), -1).h
    for d in range(0, -5, -1):
        assert rt.coeff(d) == w.h.coeff(d)


def invert_unit_leading(s):
    """Inverse of a series whose top coefficient is an eps-monomial, by the geometric series."""
    (e, v), = s.c[s.top].num.items()
    inv_lead = EpsLaurent.mono(-e, Fraction(s.c[s.top].den, v))
    body = s.mul_zpow(-s.top).scale(inv_lead)
    assert body.coeff(0) == 1 and body.top == 0
    # 1/(1 - u) = sum u^k, and u^k only reaches z^(-k)
    u = ZSeries({d: -v for d, v in body.c.items() if d}, top=-1, order=body.order)
    acc = term = ZSeries.const(1, body.order)
    for _ in range(body.order):
        term = ZSeries((term * u).c, top=0, order=body.order)
        acc = acc + term
    return ZSeries(acc.c, top=0, order=body.order).scale(inv_lead).mul_zpow(-s.top)


@pytest.mark.parametrize("order", range(1, 13))
def test_step_factor_power_is_the_inverse(order):
    # r^(-1) from exp(-x) is the series inverse of r, also after the step down
    for power in (1, -1):
        for down in (0, -1):
            got = step_factor(order, -power).shift(down)
            want = invert_unit_leading(step_factor(order, power).shift(down))
            assert (got.c, got.top, got.order) == (want.c, want.top, want.order)
    one = step_factor(order, 1) * step_factor(order, -1)
    assert one.eq_on_window(ZSeries.const(1, one.order))


def test_bench_hit_ratios_read_lru_caches():
    # the traced bench reports a cache's hit ratio only while it has cache_info
    for f in (waves.solve_formal_wave, waves.normalized_quartet, zmodel.zmodel_entry):
        assert callable(getattr(f, "cache_info", None)), f.__name__


def test_shift_solves_shifted_equation():
    # the step factor times the shifted series must still satisfy the
    # difference equation (it is the same solution re-based)
    w = solve_formal_wave(+1, 7)
    s = wave_shift(w, 2)
    assert s.h.coeff(2)  # top degree grew by the number of steps
    assert s.sigma == +1


def test_wronskian_is_one():
    a, at, b, bt = normalized_quartet(8)
    wr = a * b - at * bt
    assert wr.eq_on_window(ZSeries.const(1, wr.order))


def test_wronskian_is_one_at_order_40():
    a, at, b, bt = normalized_quartet(40)
    wr = a * b - at * bt
    assert wr.order == 40
    assert wr.eq_on_window(ZSeries.const(1, 40))


def test_tilde_leading_terms():
    a, at, b, bt = normalized_quartet(6)
    assert a.coeff(0) == EpsLaurent.one()
    assert b.coeff(0) == EpsLaurent.one()
    assert at.coeff(-1) == EpsLaurent.mono(-1)
    assert bt.coeff(-1) == EpsLaurent.mono(-1)


def test_projector_identities():
    # column(B, Btilde) * row(A, -Atilde): rank one, trace 1, constant term E11
    order = 6
    a, at, b, bt = normalized_quartet(order + 1)
    e11, e12, e21, e22 = b * a, -(b * at), bt * a, -(bt * at)
    assert (e11 + e22).eq_on_window(ZSeries.const(1, order))
    assert (e11 * e22 - e12 * e21).eq_on_window(ZSeries.zero(order - 1))
    for e, e2 in ((e11, e11 * e11 + e12 * e21), (e12, e11 * e12 + e12 * e22),
                  (e21, e21 * e11 + e22 * e21), (e22, e21 * e12 + e22 * e22)):
        assert e.eq_on_window(e2)
    assert e11.coeff(0) == EpsLaurent.one()
    assert e22.coeff(0) == EpsLaurent.zero()


def test_s1_series_log_part_cancels_and_values():
    s1 = s1_series(5)
    # z^-2 coefficient encodes the first one-point value
    assert s1.coeff(-2) == eps({-3: 1, -1: "-1/24"})
    assert s1.coeff(-3) == EpsLaurent.zero()
