"""Workload job lists, the calls each job makes into gwp1, and the output check.

A job is ``(kind, args)`` with JSON-able args.  The job lists are fixed
multisets; the seed only orders them and, for the numeric sweep, draws each
job's working precision inside a fixed band.  That keeps the amount of work
the same for every seed, so seeds vary the inputs without varying the load.

Every job's output is reduced to JSON (exact strings for exact values, decimal
strings for mpmath values) before it leaves the job process; the check compares
it against ``reference.json``, generated once by ``make_reference.py``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from mpmath import mp

WORKLOADS = ("residue-cold", "determinantal-cold", "numeric-sweep")

# Cold workloads fork a fresh job process per job; the numeric sweep runs its
# whole list in one warm process.
COLD_WORKLOADS = {"residue-cold", "determinantal-cold"}

# Seconds one job list took, at the commit that defined this benchmark, on a
# 2-core x86-64 host with the pure-Python mpmath backend.  ``--seconds`` is
# turned into a whole number of list repeats through these, so the work in a
# run never depends on speed.
NOMINAL_LIST_S = {"residue-cold": 21.0, "determinantal-cold": 21.0, "numeric-sweep": 22.0}

# The lists are fixed multisets.  Multiplicities put the median and the tail
# percentile inside blocks of identical queries, not on the edge between two
# query classes, where one noisy job would move the figure.

# One-point tau_k with k <= 10 three times over; every two-point query with
# sum(k+2) <= 7 and the three-point (0,0,0) once; (0,0) six more times.  The
# median lands in the tau_7 block, the tail percentile in the (0,0) block.
# (0,0,1) is left out: alone it costs 10 s cold.
RESIDUE_LIST = (
    [("invariant", [k]) for k in range(11)] * 3
    + [("invariant", ks) for ks in ([0, 0], [0, 1], [0, 2], [0, 3], [1, 1], [1, 2])]
    + [("invariant", [0, 0, 0])]
    + [("invariant", [0, 0])] * 6
)

# zmodel_expansion(N, d) for 3 <= N <= 5, 1 <= d < N, stabilization_check(d, N,
# N+1) for N+1 <= 5, and (N=6, d <= 2), which raised WindowError when this
# benchmark was defined.  The N=6 jobs stay in so that the defect shows in the
# failure count.
# Each query runs three times unless listed below; the median lands in the
# (5,1) block, the tail percentile in the (5,3) block.
DETERMINANTAL_QUERIES = (
    [("zmodel", [n, d]) for n in (3, 4, 5) for d in range(1, n)]
    + [("stabilization", [d, n, n + 1]) for n in (3, 4) for d in range(1, n)]
    + [("zmodel", [6, 1]), ("zmodel", [6, 2])]
)
_DETERMINANTAL_COPIES = {
    ("zmodel", (5, 1)): 4, ("zmodel", (5, 3)): 4, ("zmodel", (5, 4)): 2,
    ("stabilization", (3, 4, 5)): 2, ("zmodel", (6, 1)): 2, ("zmodel", (6, 2)): 2,
}
DETERMINANTAL_LIST = [
    (kind, args) for kind, args in DETERMINANTAL_QUERIES
    for _ in range(_DETERMINANTAL_COPIES.get((kind, tuple(args)), 3))
]

PREC_BANDS = ((256, 384), (384, 512), (512, 640), (640, 769))

# Each template runs once per precision band.  The twelve scaling-limit jobs
# (exact charlier_poly up to degree 320, nearly precision-free) hold the tail
# percentile; the median falls in the middle of the 80 Bessel-bound residual,
# Wronskian, orthogonality and L=2 jobs, above the 20 cheap asymptotic and L=1
# jobs.  One orthogonality job sums every pair l <= l' <= 3 at one a.
NUMERIC_TEMPLATES = (
    [("residual", [z, eps, "fg"[i % 2]]) for i, (z, eps) in enumerate(
        (z, eps) for z in ("5.25", "10.25", "20.25") for eps in ("1/2", "1", "2"))]
    + [("wronskian", [z, eps]) for z in ("7.25", "12.25") for eps in ("1/2", "1", "2")]
    + [("asymptotic", [z, "1", 3]) for z in (20, 40, 80)]
    + [("orthogonality", [a, 3]) for a in ("1", "2", "3")]
    + [("charpoly", [L, us]) for L in (1, 2) for us in (["3"], ["3", "4.5"])]
    + [("scaling", [zeta, ell, eps, [40, 80, 160, 320]])
       for zeta, ell, eps in (("0", 0, "1"), ("1/2", 1, "1"), ("1", 0, "1/2"))]
)


def job_list(workload: str, seed: int, seconds: float) -> list[tuple[str, list]]:
    """The seeded job list of one run: whole list repeats, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    repeats = max(1, round(seconds / NOMINAL_LIST_S[workload]))
    jobs: list[tuple[str, list]] = []
    for _ in range(repeats):
        if workload == "residue-cold":
            jobs += RESIDUE_LIST
        elif workload == "determinantal-cold":
            jobs += DETERMINANTAL_LIST
        elif workload == "numeric-sweep":
            for kind, args in NUMERIC_TEMPLATES:
                for lo, hi in PREC_BANDS:
                    jobs.append((kind, args + [rng.randrange(lo, hi)]))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def degree_pairs(degree: int) -> list[tuple[int, int]]:
    """The (l, l') pairs of one orthogonality job: 0 <= l <= l' <= degree."""
    return [(ell, ellp) for ell in range(degree + 1) for ellp in range(ell, degree + 1)]


def reference_key(kind: str, args: list) -> str:
    """Reference lookup key: the query without its working precision."""
    if kind in ("invariant", "zmodel", "stabilization"):
        return f"{kind} {json.dumps(args)}"
    return f"{kind} {json.dumps(args[:-1])}"


# ---------------------------------------------------------------------------
# Running a job (inside the job process)
# ---------------------------------------------------------------------------

def _nstr(x) -> str:
    # enough digits for the 768-bit top of the precision range
    return mp.nstr(x, 240)


def run_job(kind: str, args: list):
    """Call the public gwp1 API for one job; returns the raw result."""
    # imported here: gwp1 comes from the checkout's src, put on the path by run.py
    import gwp1
    from gwp1 import charlier as ch

    if kind == "invariant":
        return gwp1.n_point_invariant(tuple(args))
    if kind == "zmodel":
        return gwp1.zmodel_expansion(*args)
    if kind == "stabilization":
        return gwp1.stabilization_check(*args)
    prec = args[-1]
    if kind == "residual":
        z, eps, which = args[:3]
        return ch.difference_equation_residual(mp.mpf(z), Fraction(eps), prec, which)
    if kind == "wronskian":
        z, eps = args[:2]
        return ch.numeric_wronskian(mp.mpf(z), Fraction(eps), prec)
    if kind == "asymptotic":
        z, eps, order = args[:3]
        return ch.asymptotic_match_check(z, Fraction(eps), order, prec)
    if kind == "orthogonality":
        a, degree = args[:2]
        return [ch.charlier_orthogonality_sum(ell, ellp, Fraction(a), tolerance(prec), prec)
                for ell, ellp in degree_pairs(degree)]
    if kind == "charpoly":
        L, us = args[:2]
        us_m = [mp.mpf(u) for u in us]
        cp = ch.char_poly_expectation(L, 1, us_m, prec)
        bf = ch.brute_force_expectation(L, 1, us_m, 40 + prec // 8, prec)
        return cp, bf
    if kind == "scaling":
        zeta, ell, eps, Ls = args[:4]
        return ch.charlier_scaling_limit_check(Fraction(zeta), ell, Fraction(eps), Ls, prec)
    raise ValueError(f"unknown job kind {kind!r}")


def output_json(kind: str, result):
    """Reduce a job result to JSON: exact strings, or decimal strings."""
    if kind == "invariant":
        return result.value.to_json()
    if kind == "zmodel":
        degree = result.degree
        quotient = [
            [list(t), v.to_json()]
            for t, v in sorted(result.quotient.c.items())
            if v and sum(t) >= -degree
        ]
        return {"quotient": quotient, "log_in_times": result.log_in_times.to_json()}
    if kind == "stabilization":
        return bool(result)
    if kind in ("residual", "wronskian"):
        return _nstr(result)
    if kind == "asymptotic":
        return {"numeric": _nstr(result.numeric), "formal": _nstr(result.formal),
                "abs_error": _nstr(result.abs_error)}
    if kind == "orthogonality":
        return {"sums": [_nstr(acc) for acc, _ in result],
                "targets": [_nstr(target) for _, target in result]}
    if kind == "charpoly":
        return {"det": _nstr(result[0]), "brute": _nstr(result[1])}
    if kind == "scaling":
        return {"target": _nstr(result.target),
                "values": [_nstr(v) for (_, v, _) in result.rows],
                "monotone_decreasing": result.monotone_decreasing}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Checking an output against the reference (in the benchmark process)
# ---------------------------------------------------------------------------

def tolerance(prec: int):
    """Absolute or relative tolerance tied to the working precision: 2^-(prec/2),
    the same scale the numeric unit tests use (2^-64 at 128 bits)."""
    return mp.mpf(2) ** (-(prec // 2))


def _close(value: str, ref: str, prec: int, relative: bool = True) -> bool:
    with mp.workprec(2 * prec + 64):
        v, r = mp.mpf(value), mp.mpf(ref)
        scale = abs(r) if relative and r else 1
        return abs(v - r) <= tolerance(prec) * scale


def output_matches(kind: str, args: list, out, ref) -> bool:
    """True when a job's JSON output agrees with its reference entry.

    Exact outputs must be equal.  For zmodel jobs the reference may hold only
    `log_in_times` (N=6, fixed by stabilization in N); the comparison then
    covers the keys the reference holds.
    """
    if kind in ("invariant", "stabilization"):
        return out == ref
    if kind == "zmodel":
        return isinstance(out, dict) and all(out.get(k) == v for k, v in ref.items())
    prec = args[-1]
    if kind in ("residual", "wronskian"):
        return _close(out, ref, prec, relative=False)
    if kind == "asymptotic":
        return all(_close(out[k], ref[k], prec) for k in ("numeric", "formal", "abs_error"))
    if kind == "orthogonality":
        return (
            len(out["sums"]) == len(out["targets"]) == len(ref["targets"])
            and all(_close(v, r, prec, relative=False) for v, r in zip(out["sums"], ref["targets"]))
            and all(_close(v, r, prec) for v, r in zip(out["targets"], ref["targets"]))
        )
    if kind == "charpoly":
        return _close(out["det"], ref["value"], prec) and _close(out["brute"], ref["value"], prec)
    if kind == "scaling":
        return (
            out["monotone_decreasing"] is True
            and _close(out["target"], ref["target"], prec)
            and len(out["values"]) == len(ref["values"])
            and all(_close(v, r, prec) for v, r in zip(out["values"], ref["values"]))
        )
    raise ValueError(f"unknown job kind {kind!r}")
