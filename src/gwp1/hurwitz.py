"""The free energy by the GW/H correspondence (Okounkov-Pandharipande, arXiv:math/0204305).

With q = eps^-2 and the power sums p_m = eps^(m-1) t_(m-1) / (m-1)! of `miwa`, the tau_0-free
generating function is T = e^-q sum_lam q^|lam| / H_lam^2 exp(sum_(m>=2) p_m P_m(lam) / m) over
all partitions lam (the empty one carries the degree-0 values), H_lam the hook product and
P_m(lam) = sum_i [(lam_i - i + 1/2)^m - (-i + 1/2)^m] - (1 - 2^-m) B_(m+1) / (m+1).  So T[mu] =
e^-q sum_lam q^|lam| prod_i P_(mu_i)(lam) / (H_lam^2 z_mu), and T[()] = 1 as sum_(|lam|=d)
1/H_lam^2 = 1/d!.  Exactness: genus >= 0 bounds the degree d of an invariant at eps^(sum k - 2d)
by sum(k)/2 + 1 <= D = ceil(W/2) at weight <= W.  With |lam| <= D and e^-q cut after q^D, T is
exact to q^D, and the log (`miwa.log_power_sums`) only adds q-degrees, so its q^j, j <= D, are
exact; the rest is dropped.  Checks (RuntimeError): no kept term below eps^-2 (genus < 0), and
each <tau_k> equal to `invariants._one_point_closed_form`.  Each tau_0 follows by the divisor
equation, as in `invariants`.
"""

from fractions import Fraction
from math import factorial, prod

from .epslaurent import ZERO, EpsLaurent
from .invariants import _divisor_scaled, _one_point_closed_form
from .miwa import log_power_sums, partitions, power_sums_to_times, z_mu
from .waves import bernoulli_number


def _hook_product(lam: tuple[int, ...]) -> int:
    """H_lam: box (i, j) has the arm p - j - 1 and, as its leg, the rows below past column j."""
    return prod(p - j + sum(r > j for r in lam[i + 1:]) for i, p in enumerate(lam)
                for j in range(p))


def _power_sum(lam: tuple[int, ...], m: int) -> Fraction:
    """P_m(lam), over 2^m: row i (from 0) adds (2 lam_i - 2i - 1)^m - (-2i - 1)^m."""
    rows = sum((2 * p - 2 * i - 1) ** m - (-2 * i - 1) ** m for i, p in enumerate(lam))
    return (rows - (2**m - 1) * bernoulli_number(m + 1) / (m + 1)) / 2**m


def free_energy(max_weight: int) -> dict[tuple[int, ...], EpsLaurent]:
    """<tau_(k_1) ... tau_(k_n)> / prod_k m_k!, the coefficient of prod t_k, for every multiset
    ks of weight sum(k+1) <= max_weight; zero coefficients (all of odd sum(k)) are left out."""
    mus = [mu for w in range(2, max_weight + 1) for mu in partitions(w) if mu[-1] > 1]
    top = (max_weight + 1) // 2  # D, the degree bound
    sums = {mu: [0] * (top + 1) for mu in mus}  # sum over |lam| = b of prod_i P_(mu_i) / H^2
    for b in range(top + 1):
        for lam in partitions(b):
            p = [None, None] + [_power_sum(lam, m) for m in range(2, max_weight + 1)]
            prods = {(): Fraction(1, _hook_product(lam) ** 2)}
            for mu in mus:  # mu[1:] comes earlier: one product per (lam, mu)
                prods[mu] = p[mu[0]] * prods[mu[1:]]
                sums[mu][b] += prods[mu]
    series = {mu: EpsLaurent({-2 * j: sum(s[b] * (-1) ** (j - b) / factorial(j - b)
                                          for b in range(j + 1)) / z_mu(mu)
                              for j in range(top + 1)}) for mu, s in sums.items()}
    kept = {mu: EpsLaurent.from_ints({e: n for e, n in v.num.items() if e >= -2 * top}, v.den)
            for mu, v in log_power_sums({(): EpsLaurent.one(), **series}, max_weight).items()}
    coeffs = power_sums_to_times(kept, max_weight).coeffs
    low = [ks for ks, v in coeffs.items() if min(v.num) < -2]
    off = [k for k in range(1, max_weight) if coeffs.get((k,), ZERO) != _one_point_closed_form(k)]
    if low or off:
        raise RuntimeError(f"GW/H free energy: genus < 0 at ks={low}, <tau_k> wrong at k={off}")
    # m more tau_0 on base ks divide by m!, or by (m + 1)! on (0,); v holds ks's own prod m_k!
    return {(0,) * m + ks: val for ks, v in {(0,): _one_point_closed_form(0), **coeffs}.items()
            for m in range(max_weight - sum(ks) - len(ks) + 1)
            if (val := _divisor_scaled(v, sum(ks), m) * Fraction(1, factorial(m + (ks == (0,)))))}
