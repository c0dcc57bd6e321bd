"""Connected invariants by the GW/H correspondence (Okounkov-Pandharipande, arXiv:math/0204305).

With q = eps^-2 and the power sums p_m = eps^(m-1) t_(m-1) / (m-1)! of `miwa`, the tau_0-free
generating function is T = e^-q sum_lam q^|lam| / H_lam^2 exp(sum_(m>=2) p_m P_m(lam) / m) over
all partitions lam (the empty one carries the degree-0 values), H_lam the hook product and
P_m(lam) = sum_i [(lam_i - i + 1/2)^m - (-i + 1/2)^m] - (1 - 2^-m) B_(m+1) / (m+1).  So T[mu] =
e^-q sum_lam q^|lam| prod_i P_(mu_i)(lam) / (H_lam^2 z_mu), and T[()] = 1.  On ints: 1/H_lam^2 =
(d!/H_lam)^2 / d!^2, P_m = N_m / (2^m bd_m), bd_m the denominator of (2^m - 1) B_(m+1)/(m+1);
Fractions enter only at each q^j.  Each lam's conjugate lam' is built once, for the hooks and P_m:
box (i, j) has the hook lam_i + lam'_j - i - j + 1, and in Frobenius form (Kerov-Olshanski,
"Polynomial functions on the set of Young diagrams", 1994) the sum over i in P_m(lam) is
sum_(i<=r) [(lam_i - i + 1/2)^m - (-(lam'_i - i + 1/2))^m], r the Durfee rank.  Genus >= 0
bounds the degree d of an invariant at eps^(sum k - 2d) by sum(k)/2 + 1 <= D: with |lam| <= D and
e^-q cut after q^D, T and its log (`miwa.log_power_sums`, which only adds q-degrees) are exact to
q^D.  The log at mu reads T only at the sub-multisets of mu, so on a lattice closed under them it
is exact; other keys are dropped.  `free_energy(W)` takes every mu of weight <= W, parts >= 2,
D = ceil(W/2); `gwh_invariant(ks)` the sub-multisets of (k_i + 1), D = sum(k)//2 + 1.  Checks
(RuntimeError): no kept term below eps^-2 (genus < 0); in `free_energy`, <tau_k> =
`_one_point_closed_form`, GW/H's n = 1 case.
"""

from fractions import Fraction
from itertools import compress, product
from math import comb, factorial, perm, prod

from .epslaurent import ZERO, EpsLaurent
from .miwa import log_power_sums, partitions, power_sums_to_times, z_mu
from .waves import bernoulli_number


def _divisor_scaled(x: EpsLaurent, total: int, m: int) -> EpsLaurent:
    """m more tau_0 on insertions of sum(k) = total: eps^e times d^m, d = (total - e)/2."""
    return EpsLaurent.from_ints({e: v * ((total - e) // 2) ** m for e, v in x.num.items()}, x.den)


def _one_point_closed_form(k: int) -> EpsLaurent:
    """<tau_k> = sum_g eps^(2g-2) [z^(2g)] S(z)^(2d-1) / d!^2, d = k/2 + 1 - g, in u = z^2:
    S = s(u)/den, S^(-1) over den^t by exact steps of S^(-1) S = 1, each S^2 adding den^2."""
    if k % 2:
        return ZERO
    t, den = k // 2 + 1, 4 ** (k // 2 + 1) * factorial(k + 3)  # t: genus of the degree-0 term
    s = [den // (4**j * factorial(2 * j + 1)) for j in range(t + 1)]
    p, num = [den**t], {}
    for n in range(1, t + 1):
        p.append(-sum(s[j] * p[n - j] for j in range(1, n + 1)) // den)
    s2 = [sum(s[i] * s[n - i] for i in range(n + 1)) for n in range(t + 1)]
    for d in range(t + 1):  # p is S^(2d-1) to u^(t-d) over den^(t+2d); all to den^(3t) t!^2
        num[2 * (t - d) - 2] = p[t - d] * den ** (2 * (t - d)) * (factorial(t) // factorial(d)) ** 2
        p = [sum(p[i] * s2[n - i] for i in range(n + 1)) for n in range(t - d)]
    return EpsLaurent.from_ints(num, den ** (3 * t) * factorial(t) ** 2)


def _conjugate(lam: tuple[int, ...]) -> list[int]:
    """lam': column j of lam has lam'_j boxes; rows from the bottom fill the columns they add."""
    conj = []
    for i in range(len(lam), 0, -1):
        conj += [i] * (lam[i - 1] - len(conj))
    return conj


def _dimension(lam: tuple[int, ...], conj: list[int]) -> int:
    """d!/H_lam: box (i, j) has the arm lam_i - j - 1 and the leg lam'_j - i - 1."""
    return factorial(sum(lam)) // prod(p + conj[j] - i - j - 1
                                       for i, p in enumerate(lam) for j in range(p))


def _row_sums(lam: tuple[int, ...], conj: list[int], m: int) -> int:
    """2^m sum_i [(lam_i - i + 1/2)^m - (-i + 1/2)^m], i from 1, in Frobenius form: rows
    counting from 0, only the r rows of the Durfee square, i < r <= lam_i, leave a term."""
    return sum((2 * p - 2 * i - 1) ** m - (2 * i + 1 - 2 * conj[i]) ** m
               for i, p in enumerate(lam) if p > i)


def _connected(mus: list[tuple[int, ...]], top: int) -> dict[tuple[int, ...], EpsLaurent]:
    """The coefficients of prod t_(mu_i - 1) in log T cut after q^top; mus: (), then by weight."""
    zeta = {m: bernoulli_number(m + 1) * (2**m - 1) / (m + 1) for m in set().union(*mus)}
    den = {mu: z_mu(mu) * prod(2**m * zeta[m].denominator for m in mu) for mu in mus}  # free of lam
    sums = {mu: [0] * (top + 1) for mu in mus}  # sum over |lam| = b of dim^2 prod_i N_(mu_i)
    for b in range(top + 1):
        for lam in partitions(b):
            conj = _conjugate(lam)  # one lam' serves the dimension and every m
            n = {m: _row_sums(lam, conj, m) * z.denominator - z.numerator for m, z in zeta.items()}
            prods = {}
            for mu in mus:  # mu[1:] is lighter, so done: one product per (lam, mu)
                prods[mu] = n[mu[0]] * prods[mu[1:]] if mu else _dimension(lam, conj) ** 2
                sums[mu][b] += prods[mu]
    # j!^2 [q^j] e^-q sum_b q^b s_b / b!^2 = sum_b (-1)^(j-b) C(j, b) j!/b! s_b
    series = {mu: EpsLaurent({-2 * j: Fraction(
        sum((-1) ** (j - b) * comb(j, b) * perm(j, j - b) * s[b] for b in range(j + 1)),
        factorial(j) ** 2 * den[mu]) for j in range(top + 1)}) for mu, s in sums.items()}
    kept = {mu: EpsLaurent.from_ints({e: n for e, n in v.num.items() if e >= -2 * top}, v.den)
            for mu, v in log_power_sums(series, sum(mus[-1])).items() if mu in sums}
    coeffs = power_sums_to_times(kept, sum(mus[-1])).coeffs
    if low := [ks for ks, v in coeffs.items() if min(v.num) < -2]:
        raise RuntimeError(f"GW/H connected coefficients: genus < 0 at ks={low}")
    return coeffs


def gwh_invariant(ks: tuple[int, ...]) -> EpsLaurent:
    """<tau_(k_1) ... tau_(k_n)>, every k >= 1, on the sub-multisets of mu = (k_i + 1)."""
    mu = tuple(sorted((k + 1 for k in ks), reverse=True))
    subs = sorted({tuple(compress(mu, mask)) for mask in product((0, 1), repeat=len(mu))}, key=sum)
    value = _connected(subs, sum(ks) // 2 + 1).get(tuple(sorted(ks)), ZERO)
    return value * prod(factorial(ks.count(k)) for k in set(ks))


def free_energy(max_weight: int) -> dict[tuple[int, ...], EpsLaurent]:
    """<tau_(k_1) ... tau_(k_n)> / prod_k m_k!, the coefficient of prod t_k, for every multiset
    ks of weight sum(k+1) <= max_weight; zero coefficients (all of odd sum(k)) are left out."""
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got max_weight={max_weight}")
    mus = [mu for w in range(max_weight + 1) for mu in partitions(w) if not mu or mu[-1] > 1]
    coeffs = _connected(mus, (max_weight + 1) // 2)
    if off := [k for k in range(1, max_weight)
               if coeffs.get((k,), ZERO) != _one_point_closed_form(k)]:
        raise RuntimeError(f"GW/H free energy: <tau_k> wrong at k={off}")
    # m more tau_0 on base ks divide by m!, or by (m + 1)! on (0,); v holds ks's own prod m_k!
    return {(0,) * m + ks: val for ks, v in {(0,): _one_point_closed_form(0), **coeffs}.items()
            for m in range(max_weight - sum(ks) - len(ks) + 1)
            if (val := _divisor_scaled(v, sum(ks), m) * Fraction(1, factorial(m + (ks == (0,)))))}
