#!/usr/bin/env python3
"""Regenerate bench/reference.json: the expected output of every query the
benchmark's job lists can hold.

    python3 bench/make_reference.py

Run from the root of a checkout whose exact outputs are trusted; it takes a few
minutes (free_energy(4) alone is most of it).  Before writing, it confirms
the exact references across the two routes:

* free_energy(4) (residue route) equals zmodel_expansion(5, 4).log_in_times
  (determinantal route) on every coefficient of weight <= 4;
* every residue-pool invariant of weight <= 4 equals that coefficient times
  its automorphism factor;
* every determinantal-pool log_in_times equals the weight <= d part of it.

The N = 6 zmodel queries raise WindowError at the commit this was made from;
their log_in_times reference is the stable N = 5 value (the logarithm in the
times does not depend on N once N > d), and they have no quotient reference.

Numeric references are computed at REF_PREC bits, well above the 768-bit top
of the sweep, and cross-checked against closed forms or a second method.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs as joblib  # noqa: E402
from mpmath import mp  # noqa: E402

import gwp1  # noqa: E402

REF_PREC = 1400
REF_DIGITS = 300


def _s(x) -> str:
    return mp.nstr(x, REF_DIGITS)


def _weight_part(miwa_json: dict, degree: int) -> dict:
    return {k: v for k, v in miwa_json.items()
            if sum(int(x) + 1 for x in k.split(",")) <= degree}


def exact_references() -> dict:
    ref: dict = {}
    fe = gwp1.free_energy(4)
    lt = gwp1.zmodel_expansion(5, 4).log_in_times
    if set(fe) != set(lt.coeffs) or any(fe[k] != lt.coeffs[k] for k in fe):
        raise SystemExit("free_energy(4) disagrees with zmodel_expansion(5, 4)")
    lt_json = lt.to_json()

    for kind, args in sorted(set(map(lambda j: (j[0], tuple(j[1])), joblib.RESIDUE_LIST))):
        ks = tuple(sorted(args))
        rec = gwp1.n_point_invariant(tuple(args))
        if sum(k + 1 for k in ks) <= 4:
            aut = 1
            for m in Counter(ks).values():
                aut *= factorial(m)
            if rec.value * Fraction(1, aut) != fe.get(ks, gwp1.EpsLaurent.zero()):
                raise SystemExit(f"invariant {ks} disagrees with the determinantal route")
        ref[joblib.reference_key(kind, list(args))] = joblib.output_json(kind, rec)

    for kind, args in joblib.DETERMINANTAL_QUERIES:
        key = joblib.reference_key(kind, args)
        if kind == "stabilization":
            if not gwp1.stabilization_check(*args):
                raise SystemExit(f"stabilization_check{tuple(args)} is False")
            ref[key] = True
            continue
        n, d = args
        if n >= 6:
            continue
        out = joblib.output_json(kind, gwp1.zmodel_expansion(n, d))
        if out["log_in_times"] != _weight_part(lt_json, d):
            raise SystemExit(f"zmodel {args} disagrees with free_energy(4)")
        ref[key] = out
    for kind, args in joblib.DETERMINANTAL_QUERIES:
        if kind == "zmodel" and args[0] >= 6:
            stable = ref[joblib.reference_key("zmodel", [5, args[1]])]["log_in_times"]
            ref[joblib.reference_key(kind, args)] = {"log_in_times": stable}
    return ref


def numeric_references() -> dict:
    ref: dict = {}
    prec = REF_PREC
    for kind, args in joblib.NUMERIC_TEMPLATES:
        key = joblib.reference_key(kind, args + [prec])
        if kind == "residual":
            ref[key] = "0"
        elif kind == "wronskian":
            ref[key] = "1"
        elif kind == "asymptotic":
            rep = joblib.run_job(kind, args + [prec])
            ref[key] = {"numeric": _s(rep.numeric), "formal": _s(rep.formal),
                        "abs_error": _s(rep.abs_error)}
        elif kind == "orthogonality":
            a = Fraction(args[0])
            targets = [a ** ell * factorial(ell) if ell == ellp else Fraction(0)
                       for ell, ellp in joblib.degree_pairs(args[1])]
            with mp.workprec(prec):
                ref[key] = {"targets": [_s(mp.mpf(t.numerator) / t.denominator) for t in targets]}
        elif kind == "charpoly":
            cp, bf = joblib.run_job(kind, args + [prec])
            with mp.workprec(prec):
                if abs(cp - bf) > mp.mpf(2) ** (-prec // 2) * max(abs(cp), 1):
                    raise SystemExit(f"charpoly {args}: determinant and brute force differ")
            ref[key] = {"value": _s(cp)}
        elif kind == "scaling":
            rep = joblib.run_job(kind, args + [prec])
            if not rep.monotone_decreasing:
                raise SystemExit(f"scaling {args}: errors do not decrease")
            zeta, ell, eps, _ = args
            with mp.workprec(prec):
                mu = mp.mpf(Fraction(zeta).numerator) / Fraction(zeta).denominator - ell - mp.mpf(1) / 2
                e = mp.mpf(Fraction(eps).numerator) / Fraction(eps).denominator
                closed = mp.power(e, mu) * mp.besselj(mu, 2 / e)
                if abs(rep.target - closed) > mp.mpf(2) ** (-prec // 2):
                    raise SystemExit(f"scaling {args}: target disagrees with mpmath besselj")
            ref[key] = {"target": _s(rep.target), "values": [_s(v) for (_, v, _) in rep.rows]}
        else:
            raise SystemExit(f"no reference rule for {kind}")
    return ref


def main() -> int:
    ref = exact_references()
    ref.update(numeric_references())
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} references to {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
