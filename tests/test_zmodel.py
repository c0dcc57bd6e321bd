"""Determinantal-model expansion: entries, worked example, stabilization."""

from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from unittest import mock

import pytest

from gwp1.epslaurent import EpsLaurent
from gwp1.hurwitz import _divisor_scaled, _one_point_closed_form, free_energy
from gwp1.miwa import MiwaPolynomial, partitions, schur_to_monomials
from gwp1 import miwa, waves, zmodel
from gwp1.waves import affine_diagonals, solve_formal_wave, wave_shift
from gwp1.zmodel import (
    ZModelExpansion,
    _column_chain,
    _det,
    _minor,
    characteristic_det_check,
    plucker_coordinates,
    stabilization_check,
    zmodel_entry,
    zmodel_expansion,
)
from gwp1.zseries import WindowError, ZSeries

from conftest import affine_reader


def eps(pairs):
    return EpsLaurent({e: Fraction(v) for e, v in pairs.items()})


def normalised_frame(count, order):
    """G_1..G_count, G_k = z^(k-1) - sum_(x<=-1) a(x, -k) z^x: the columns of the
    characteristic matrix, a unipotent column mix of E_1..E_k read off the affine
    coordinates (Zhou, arXiv:1306.5429), in which pi_lam is an l(lam) x l(lam) minor."""
    aff = affine_reader()
    columns = []
    for k in range(1, count + 1):
        g = {x: -aff(x, -k) for x in range(-order, 0)}
        g[k - 1] = EpsLaurent.one()
        columns.append(ZSeries(g, top=k - 1, order=order))
    return tuple(columns)


def characteristic_entry(k, order):
    """G_k(z) = [w^(-k)] K(z, w)/(w - z) expanded in |w| > |z|: z^(k-1) + O(1/z)."""
    if k < 1:
        raise ValueError("column index k must be >= 1")
    return normalised_frame(k, order)[k - 1]


def leibniz_reference(columns, min_total):
    """Brute-force det(columns[c](z_j)) over all permutations, totals >= min_total."""
    n = len(columns)
    total = {}
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        terms = {(): EpsLaurent.one() if inversions % 2 == 0 else -EpsLaurent.one()}
        for c in sigma[:-1]:
            terms = {t + (d,): v * w for t, v in terms.items() for d, w in columns[c].c.items()}
        for t, v in terms.items():
            for d, w in columns[sigma[-1]].c.items():
                if sum(t) + d >= min_total:
                    total[t + (d,)] = total.get(t + (d,), EpsLaurent.zero()) + v * w
    return {t: v for t, v in total.items() if v}


def test_entries_are_monic():
    for k in (1, 2, 3, 4):
        e = zmodel_entry(k, 5)
        assert e.top == k - 1
        assert e.coeff(k - 1) == EpsLaurent.one()
        # the column recipe of the per-column solve: f-wave at 5 + k + 1, shifted k - 1
        w = wave_shift(solve_formal_wave(+1, 5 + k + 1), k - 1)
        expected = w.h.truncate(5).scale(EpsLaurent.mono(1 - k))
        assert (e.c, e.top, e.order) == (expected.c, expected.top, expected.order)
        # a longer chain solves with more headroom and gives the same column
        longer = _column_chain(5, 5)[k - 1]
        assert (longer.c, longer.top, longer.order) == (e.c, e.top, e.order)
    with pytest.raises(ValueError):
        zmodel_entry(0, 5)


def test_one_wave_solve_per_expansion(monkeypatch):
    # one closed-form row table, grown once, feeds every hook; neither the
    # triangular solve nor the shifted f-wave chain is used
    monkeypatch.setattr(waves, "_ROWS", waves._Rows())
    solve_formal_wave.cache_clear()
    grow = waves._Rows.grow
    with mock.patch.object(waves._Rows, "grow", autospec=True, side_effect=grow) as spy, \
            mock.patch("gwp1.zmodel.affine_diagonals", wraps=affine_diagonals) as reader:
        zmodel_expansion(5, 2)
    assert [call.args[1] for call in spy.call_args_list] == [2]
    assert len(waves._ROWS.dens) == 3
    # one read per hook diagonal, the deepest first
    assert [call.args for call in reader.call_args_list] == [(-3, -3), (-2, -2)]
    info = solve_formal_wave.cache_info()
    assert info.hits == info.misses == 0


def vandermonde(nvars):
    """prod_{j<k} (z_k - z_j) as {exponent tuple: int}."""
    poly = {(0,) * nvars: 1}
    for k in range(nvars):
        for j in range(k):
            nxt = {}
            for t, v in poly.items():
                for var, sign in ((k, 1), (j, -1)):
                    tt = list(t)
                    tt[var] += 1
                    nxt[tuple(tt)] = nxt.get(tuple(tt), 0) + sign * v
            poly = {t: v for t, v in nxt.items() if v}
    return poly


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_laplace_det_matches_leibniz(nvars):
    # the row-by-row expansion over sets of used columns, on the N x N
    # E-frame coefficient matrices [z^(j-1-lam_j)] E_k whose determinants are
    # the Plucker coordinates pi_lam for l(lam) <= N
    order = 4
    columns = _column_chain(nvars, order)
    for w in range(order + 1):
        for lam in partitions(w):
            if len(lam) > nvars:
                continue
            lam_j = lam + (0,) * (nvars - len(lam))
            matrix = [[col.coeff(j - lam_j[j]) for col in columns] for j in range(nvars)]
            leibniz = EpsLaurent.zero()
            for sigma in permutations(range(nvars)):
                inversions = sum(
                    sigma[i] > sigma[j] for i in range(nvars) for j in range(i + 1, nvars)
                )
                term = EpsLaurent.one() if inversions % 2 == 0 else -EpsLaurent.one()
                for j in range(nvars):
                    term = term * matrix[j][sigma[j]]
                leibniz = leibniz + term
            rows = [{k: x for k, x in enumerate(row) if x} for row in matrix]
            assert _det(rows) == leibniz
            assert _minor(lam, columns) == leibniz


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_cauchy_binet_matches_leibniz(nvars):
    # det(E_k(z_j)) = Delta(z) * sum_{l(lam) <= N} pi_lam s_lam(1/z), with the
    # determinant by brute force over the shifted-wave columns and pi_lam from
    # the hook determinants.  Degree 3 >= N for N <= 3 also checks that s_lam
    # with l(lam) > N drop out of the N-variable quotient.
    degree = 3
    npairs = nvars * (nvars - 1) // 2
    quotient = ZModelExpansion(nvars, degree, plucker_coordinates(degree), None).quotient
    product = {}
    for t, v in quotient.c.items():
        for s, n in vandermonde(nvars).items():
            key = tuple(a + b for a, b in zip(t, s))
            if sum(key) >= npairs - degree:
                product[key] = product.get(key, EpsLaurent.zero()) + v * n
    product = {t: v for t, v in product.items() if v}
    # every exponent of a monomial with total >= npairs - degree is >= -degree
    columns = _column_chain(nvars, degree)
    assert product == leibniz_reference(columns, npairs - degree)


def test_first_entry_is_f_wave():
    e1 = zmodel_entry(1, 6)
    h = solve_formal_wave(+1, 6).h
    for d in range(0, -7, -1):
        assert e1.coeff(d) == h.coeff(d)


def test_worked_example_coefficients():
    q = zmodel_expansion(4, 3).quotient
    assert q.coeff((0, 0, 0, 0)) == EpsLaurent.one()
    assert q.coeff((-1, 0, 0, 0)) == eps({-2: 1, 0: "-1/24"})
    assert q.coeff((-2, 0, 0, 0)) == eps({-4: "1/2", -2: "11/24", 0: "1/1152"})
    assert q.coeff((-3, 0, 0, 0)) == eps(
        {-6: "1/6", -4: "47/48", -2: "265/1152", 0: "1003/414720"}
    )
    assert q.coeff((-2, -1, 0, 0)) == eps(
        {-6: "1/2", -4: "23/16", -2: "169/384", 0: "-1/27648"}
    )
    # below the requested total degree the expansion certifies nothing
    with pytest.raises(WindowError):
        q.coeff((-4, 0, 0, 0))
    with pytest.raises(WindowError):
        q.coeff((-1, 0, 0))


def test_quotient_is_symmetric():
    q = zmodel_expansion(3, 2).quotient
    assert q.coeff((-1, -1, 0)) == q.coeff((-1, 0, -1)) == q.coeff((0, -1, -1))


@pytest.mark.parametrize("nvars, degree", [(3, 2), (4, 3), (5, 4), (6, 5)])
def test_quotient_reads_every_arrangement(nvars, degree):
    # the quotient holds one coefficient per partition; every ordering of the
    # exponents, and every tuple with a positive exponent, reads through it
    q = zmodel_expansion(nvars, degree).quotient
    full = {}
    for nu, v in schur_to_monomials(plucker_coordinates(degree)).items():
        if len(nu) <= nvars:
            padded = tuple(-p for p in nu) + (0,) * (nvars - len(nu))
            full.update((t, v) for t in set(permutations(padded)))
    assert q.c == full
    for t in product(range(-degree, 2), repeat=nvars):
        if sum(t) >= -degree:
            assert q.coeff(t) == full.get(t, EpsLaurent.zero()), t


def test_log_in_times_matches_free_energy():
    lt = zmodel_expansion(3, 2).log_in_times
    fe = free_energy(2)
    assert set(lt.coeffs) == set(fe)
    for ks, v in fe.items():
        assert lt.coeffs[ks] == v
    # past the old six-variable window, on every monomial
    assert zmodel_expansion(6, 5).log_in_times.coeffs == free_energy(5)
    assert zmodel_expansion(7, 6).log_in_times.coeffs == free_energy(6)


def test_stabilization():
    for d in range(1, 11):
        assert stabilization_check(d, d + 1, d + 2), d


@pytest.mark.parametrize("n1, n2", [(5, 3), (3, 5)])
def test_stabilization_builds_one_expansion_and_names_the_short_count(n1, n2):
    with mock.patch.object(zmodel, "zmodel_expansion", wraps=zmodel_expansion) as spy:
        with pytest.raises(ValueError, match="nvars=3, degree=3"):
            stabilization_check(3, n1, n2)
        assert spy.call_count == 1
        assert stabilization_check(3, n1 + 1, n2 + 1)
        assert spy.call_count == 2


def _negated_hooks(plucker_coordinates):
    """pi_lam with the sign of every rank-one (hook) coordinate flipped."""
    return lambda degree: {lam: -pi if sum(p > i for i, p in enumerate(lam)) == 1 else pi
                           for lam, pi in plucker_coordinates(degree).items()}


def _unsigned_strips(border_strips):
    return lambda lam, m: ((nu, 1) for nu, _ in border_strips(lam, m))


def _scaled_multi_part_logs(log_power_sums):
    return lambda series, degree: {mu: v * 2 if len(mu) > 1 else v
                                   for mu, v in log_power_sums(series, degree).items()}


@pytest.mark.parametrize("module, name, mutate", [
    (zmodel, "plucker_coordinates", _negated_hooks),
    (miwa, "_border_strips", _unsigned_strips),
    (zmodel, "log_power_sums", _scaled_multi_part_logs),
], ids=["negated-hook", "unsigned-border-strip", "scaled-log-coefficient"])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_stabilization_catches_a_determinantal_mutant(monkeypatch, module, name, mutate, degree):
    # every expansion of a mutated pipeline agrees with every other; only the GW/H sum differs
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert not stabilization_check(degree, degree + 1, degree + 2)


def _summed_factorial_times(power_sums_to_times):
    """p_m -> eps^(m-1) t_(m-1) with prod_i (m_i - 1)! replaced by (sum_i (m_i - 1))!:
    the same on every t_0^m t_k, wrong from t_1^2 on."""
    def mutant(series, degree):
        times = power_sums_to_times(series, degree)
        return MiwaPolynomial({ks: v * Fraction(prod(map(factorial, ks)), factorial(sum(ks)))
                               for ks, v in times.coeffs.items()}, degree)
    return mutant


def _closed_form_check(degree, n1, n2):
    """The check before the GW/H comparison: each t_0^m t_k, m + k + 1 <= degree, against
    <tau_k> in closed form, each tau_0 by the divisor equation."""
    log = zmodel.zmodel_expansion(min(n1, n2), degree).log_in_times
    return all(
        log.coeff((0,) * m + (k,)) == _divisor_scaled(_one_point_closed_form(k), k, m)
        * Fraction(1, factorial(m + (k == 0)))
        for k in range(degree) for m in range(degree - k)
    )


@pytest.mark.parametrize("degree", [4, 5])
def test_stabilization_reads_the_multi_part_coefficients(monkeypatch, degree):
    # only zmodel's binding is mutated: free_energy keeps the real substitution
    monkeypatch.setattr(zmodel, "power_sums_to_times",
                        _summed_factorial_times(zmodel.power_sums_to_times))
    assert _closed_form_check(degree, degree + 1, degree + 2)
    assert not stabilization_check(degree, degree + 1, degree + 2)


@pytest.mark.parametrize("call, args, message", [
    (zmodel_expansion, (3, -1), "degree must be >= 0, got degree=-1"),
    (stabilization_check, (-1, 2, 3), "degree must be >= 0, got degree=-1"),
    (free_energy, (-1,), "max_weight must be >= 0, got max_weight=-1"),
], ids=["zmodel-expansion", "stabilization", "free-energy"])
def test_negative_degree_or_weight_is_refused_before_any_work(call, args, message):
    with mock.patch.object(zmodel, "plucker_coordinates") as plucker, \
            mock.patch("gwp1.hurwitz._connected") as connected:
        with pytest.raises(ValueError, match=message):
            call(*args)
    assert plucker.call_count == connected.call_count == 0


def test_nvars_degree_guard():
    with pytest.raises(ValueError):
        zmodel_expansion(3, 3)


def test_characteristic_entry_matches_model_entry_determinant():
    assert characteristic_det_check(1, 4)
    assert characteristic_det_check(2, 4)
    assert characteristic_det_check(3, 5)


def test_e_frame_recurrence_loses_no_window():
    # the column recurrence reaches every N from one quartet at O + N - 1
    assert characteristic_det_check(6, 5)
    assert characteristic_det_check(8, 6)
    e = zmodel_entry(7, 3)
    assert (e.top, e.order) == (6, 3)
    assert e.coeff(6) == EpsLaurent.one()


def test_giambelli_matches_frame_minors():
    # pi_lam as the l(lam) x l(lam) minor of G_1..G_l(lam), the route that
    # the hook determinants replaced, for every |lam| <= 12
    degree = 12
    frame = normalised_frame(degree, degree)
    minors = {
        lam: pi
        for w in range(degree + 1)
        for lam in partitions(w)
        if (pi := _minor(lam, frame[:len(lam)]))
    }
    assert plucker_coordinates(degree) == minors


def test_characteristic_entry_monic():
    for k in (1, 2, 3, 4):
        g = characteristic_entry(k, 4)
        assert g.coeff(k - 1) == EpsLaurent.one()
        # the normalised frame: z^(k-1) + O(1/z), nothing in between
        assert all(not g.coeff(m) for m in range(k - 1))
    with pytest.raises(ValueError):
        characteristic_entry(0, 4)
