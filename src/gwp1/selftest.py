"""Self-contained verification suite shared by the CLI and the test suite.

Each check is a named, argument-free callable returning a CheckResult; the
registry order is the canonical reporting order.  The frozen rational values
here were produced once by the independent oracle routes (triangular solve,
brute-force ensemble sums, the GW/H free energy) and are treated
as constants afterwards.  The numeric checks read mpmath through `charlier.mp`,
so it loads with the first of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Callable, NamedTuple

from .epslaurent import ZERO, EpsLaurent
from .zseries import ZSeries
from . import charlier as ch
from .hurwitz import free_energy
from .invariants import n_point_invariant
from .miwa import partitions
from .waves import normalized_quartet, s1_series, solve_formal_wave, wave_shift
from .zmodel import characteristic_det_check, stabilization_check, zmodel_expansion


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _eps(pairs: dict[int, str]) -> EpsLaurent:
    return EpsLaurent({e: Fraction(v) for e, v in pairs.items()})


F_WAVE_COEFFS = {
    0: _eps({0: "1"}),
    -1: _eps({-2: "1", 0: "-1/24"}),
    -2: _eps({-4: "1/2", -2: "11/24", 0: "1/1152"}),
    -3: _eps({-6: "1/6", -4: "47/48", -2: "265/1152", 0: "1003/414720"}),
}

ONE_POINT_VALUES = {
    0: _eps({-2: "1", 0: "-1/24"}),
    2: _eps({-2: "1/4", 0: "1/24", 2: "7/5760"}),
}

MULTI_POINT_VALUES = {
    (0, 0): _eps({-2: "1"}),
    (0, 0, 0): _eps({-2: "1"}),
    (0, 1): EpsLaurent.zero(),
}

# coefficients of z_1^e1 ... z_4^e4 in the four-variable expansion at degree 3
ZMODEL_N4_COEFFS = {
    (-1, 0, 0, 0): F_WAVE_COEFFS[-1],
    (-2, 0, 0, 0): F_WAVE_COEFFS[-2],
    (-3, 0, 0, 0): F_WAVE_COEFFS[-3],
    (-2, -1, 0, 0): _eps({-6: "1/2", -4: "23/16", -2: "169/384", 0: "-1/27648"}),
}

# degree-<=3 coefficients of the generating function in the times t_k
DEGREE3_GENERATING_FUNCTION = {
    (0,): _eps({-2: "1", 0: "-1/24"}),
    (0, 0): _eps({-2: "1/2"}),
    (0, 0, 0): _eps({-2: "1/6"}),
    (2,): _eps({-2: "1/4", 0: "1/24", 2: "7/5760"}),
}


def check_wave_coefficients() -> CheckResult:
    h = normalized_quartet(3)[0]
    bad = [d for d, v in F_WAVE_COEFFS.items() if h.coeff(d) != v]
    return CheckResult(
        "wave-coefficients",
        not bad,
        "f-wave series to order 3" + (f"; mismatches at {bad}" if bad else ""),
    )


def check_oracle_equivalence() -> CheckResult:
    order = 8
    wa = solve_formal_wave(+1, order + 2)
    wb = solve_formal_wave(-1, order + 2)
    solved = (wa.h, wave_shift(wa, -1).h, wb.h, wave_shift(wb, +1).h)
    ok = all(
        s.coeff(d) == c.coeff(d)
        for s, c in zip(solved, normalized_quartet(order))
        for d in range(0, -order - 1, -1)
    )
    return CheckResult(
        "oracle-equivalence", ok,
        "closed-form A, Atilde, B, Btilde vs triangular solve and shift, order 8",
    )


def check_one_point() -> CheckResult:
    bad = [k for k, v in ONE_POINT_VALUES.items() if n_point_invariant((k,)).value != v]
    ok = not bad and n_point_invariant((1,)).value == EpsLaurent.zero()
    return CheckResult("one-point", ok, "tau_0, tau_1, tau_2 one-point values")


def check_multi_point() -> CheckResult:
    bad = [
        ks for ks, v in MULTI_POINT_VALUES.items() if n_point_invariant(ks).value != v
    ]
    return CheckResult(
        "multi-point",
        not bad,
        "two- and three-point values, each trace checked against its GW/H value",
    )


def check_zmodel_example() -> CheckResult:
    q = zmodel_expansion(4, 3).quotient
    bad = [t for t, v in ZMODEL_N4_COEFFS.items() if q.coeff(t) != v]
    return CheckResult(
        "zmodel-example", not bad, "four-variable expansion coefficients at degree 3"
    )


def check_cross_pipeline() -> CheckResult:
    lt = zmodel_expansion(7, 6).log_in_times
    fe = free_energy(6)
    low = {ks: v for ks, v in fe.items() if sum(k + 1 for k in ks) <= 3}
    cases = {tuple(sorted(m - 1 for m in mu)) for w in range(1, 7) for mu in partitions(w)}
    residue = all(n_point_invariant(ks).value == fe.get(ks, ZERO) * prod(
        factorial(ks.count(k)) for k in set(ks)) for ks in cases)
    ok = lt.coeffs == fe and low == DEGREE3_GENERATING_FUNCTION and residue
    return CheckResult(
        "cross-pipeline",
        ok,
        "Plucker-coordinate logarithm = GW/H free energy, weight 6; residue n-point values "
        "= its coefficients times prod m_k!, weight 6; frozen table, degree 3",
    )


def check_stabilization() -> CheckResult:
    ok = stabilization_check(4, 5, 6)
    return CheckResult("stabilization", ok,
                       "logarithm = GW/H free energy, every coefficient of weight <= 4, N=5,6")


def check_projector() -> CheckResult:
    order = 8
    a, at, b, bt = normalized_quartet(order + 2)
    # the rank-one projector column(B, Btilde) * row(A, -Atilde)
    e11, e12, e21, e22 = b * a, -(b * at), bt * a, -(bt * at)
    ok = (e11 + e22).eq_on_window(ZSeries.const(1, order))
    ok &= (e11 * e22 - e12 * e21).eq_on_window(ZSeries.zero(order - 1))
    for e, e2 in (
        (e11, e11 * e11 + e12 * e21), (e12, e11 * e12 + e12 * e22),
        (e21, e21 * e11 + e22 * e21), (e22, e21 * e12 + e22 * e22),
    ):
        ok &= e.eq_on_window(e2)
    a, at, b, bt = normalized_quartet(order + 1)
    ok &= (a * b - at * bt).eq_on_window(ZSeries.const(1, order))
    s1_series(order)  # raises if the log-part fails to cancel
    return CheckResult(
        "projector", bool(ok), "trace/idempotent/determinant and unit kernel, order 8"
    )


def check_characteristic_det() -> CheckResult:
    ok = characteristic_det_check(1, 4) and characteristic_det_check(2, 4)
    return CheckResult(
        "characteristic-det", ok,
        "Plucker coordinates as shifted-wave minors and hook determinants, |lam| <= 4",
    )


def check_charlier_orthogonality() -> CheckResult:
    tol = ch.mp.mpf(10) ** -20
    ok = all(
        ch.charlier_orthogonality_check(l, lp, 1, tol, 128)
        for l in range(5)
        for lp in range(5)
    )
    return CheckResult(
        "charlier-orthogonality", ok, "norms a^l l! and off-diagonal zeros, l,l' <= 4"
    )


def check_charlier_determinant() -> CheckResult:
    tol = ch.mp.mpf(10) ** -15
    ok = True
    for L in (1, 2):
        for us in ((ch.mp.mpf(3),), (ch.mp.mpf(3), ch.mp.mpf("4.5"))):
            cp = ch.char_poly_expectation(L, 1, us, 128)
            bf = ch.brute_force_expectation(L, 1, us, 60, 128)
            ok &= abs(cp - bf) < tol
    return CheckResult(
        "charlier-determinant", bool(ok), "determinant formula vs brute-force ensemble"
    )


def check_scaling_limit() -> CheckResult:
    rep = ch.charlier_scaling_limit_check(0, 0, 1, [20, 40, 80], 192)
    errs = ", ".join(ch.mp.nstr(e, 4) for (_, _, e) in rep.rows)
    return CheckResult(
        "scaling-limit",
        rep.monotone_decreasing,
        f"errors along L=20,40,80: {errs} (monotone decrease asserted; rate reported only)",
    )


def check_asymptotics() -> CheckResult:
    r1 = ch.asymptotic_match_check(20, 1, 3, 192)
    r2 = ch.asymptotic_match_check(40, 1, 3, 192)
    ratio = r1.abs_error / r2.abs_error
    ok = r1.rel_error < ch.mp.mpf(10) ** -4 and 8 <= ratio <= 32
    return CheckResult(
        "asymptotics",
        bool(ok),
        f"rel err {ch.mp.nstr(r1.rel_error, 4)} at z=20; doubling ratio {ch.mp.nstr(ratio, 4)}",
    )


CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    ("wave-coefficients", check_wave_coefficients),
    ("oracle-equivalence", check_oracle_equivalence),
    ("one-point", check_one_point),
    ("multi-point", check_multi_point),
    ("zmodel-example", check_zmodel_example),
    ("cross-pipeline", check_cross_pipeline),
    ("stabilization", check_stabilization),
    ("projector", check_projector),
    ("characteristic-det", check_characteristic_det),
    ("charlier-orthogonality", check_charlier_orthogonality),
    ("charlier-determinant", check_charlier_determinant),
    ("scaling-limit", check_scaling_limit),
    ("asymptotics", check_asymptotics),
)


def run_selftest(only: str | None = None) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        if only is not None and name != only:
            continue
        try:
            results.append(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    if only is not None and not results:
        raise KeyError(f"unknown check {only!r}; known: {[n for n, _ in CHECKS]}")
    return results
