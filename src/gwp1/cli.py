"""Command-line interface for the exact and numeric pipelines.

Canonical output is JSON with sorted keys (byte-identical across runs for the
same configuration); csv and text are projections of the same data.  Exit
codes: 0 success, 1 computational failure, 2 usage error.  The command line
checks only the limits that no library function checks; a library ValueError
names its limit and is reported as a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .epslaurent import EpsLaurent
from . import charlier as ch
from .hurwitz import free_energy
from .invariants import invariant_by_genus, n_point_invariant
from .miwa import MiwaPolynomial
from .waves import normalized_quartet, solve_formal_wave
from .zmodel import stabilization_check, zmodel_expansion

DEFAULT_PREC = 128


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line, exclusive flags included
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _flat_eps(v: EpsLaurent):
    """Constant values render as a bare "p/q"; otherwise {exponent: "p/q"}."""
    j = v.to_json()
    if list(j) in ([], ["0"]):
        return j.get("0", "0")
    return j


def _emit(doc, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(doc)
    else:
        text = _to_text(doc)
    if output:
        try:
            fh = open(output, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --output {output}: {exc.strerror}")
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, v, out: dict) -> dict:
    if isinstance(v, dict):
        for k in sorted(v):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v[k], out)
    else:
        out[prefix] = v
    return out


def _to_csv(doc) -> str:
    if "rows" in doc:  # every command returns a dict; the checks put their rows under "rows"
        rows = [_flatten("", r, {}) for r in doc["rows"]]
    else:
        rows = [{"key": k, "value": v} for k, v in _flatten("", doc, {}).items()]
    headers = sorted({k for r in rows for k in r})
    lines = [",".join(headers)]
    for r in rows:
        lines.append(",".join(str(r.get(h, "")) for h in headers))
    return "\n".join(lines) + "\n"


def _to_text(doc, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        parts = []
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                parts.append(f"{pad}{k}:\n{_to_text(v, indent + 1)}")
            else:
                parts.append(f"{pad}{k}: {v}\n")
        return "".join(parts)
    if isinstance(doc, list):
        return "".join(_to_text(v, indent) for v in doc)
    return f"{pad}{doc}\n"


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})")


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"malformed ks list: {text!r}")
    return ks


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _wave_json(h, order: int) -> dict:
    return {str(-d): _flat_eps(h.coeff(-d)) for d in range(order + 1) if h.coeff(-d)}


def cmd_wave(ns: argparse.Namespace):
    return _wave_json(normalized_quartet(ns.order)[0 if ns.which == "f" else 2], ns.order)


def cmd_wave_oracle(ns: argparse.Namespace):
    return _wave_json(solve_formal_wave(-1, ns.order).h, ns.order)


def cmd_invariant(ns: argparse.Namespace):
    ks = _parse_ks(ns.ks)
    if ns.by_genus:
        table = invariant_by_genus(ks)
        d_shift = sum(ks) // 2 + 1
        return {f"{g},{d_shift - g}": str(v) for g, v in sorted(table.items())}
    return n_point_invariant(ks).value.to_json()


def cmd_free_energy(ns: argparse.Namespace):
    if ns.max_weight < 1:
        raise UsageError(f"max weight must be >= 1, got {ns.max_weight}")
    fe = free_energy(ns.max_weight)
    return {",".join(map(str, ks)): v.to_json() for ks, v in sorted(fe.items())}


def _miwa_json(p: MiwaPolynomial) -> dict:
    return {
        ",".join(map(str, ks)): _flat_eps(v) for ks, v in sorted(p.coeffs.items())
    }


def cmd_zmodel(ns: argparse.Namespace):
    n = ns.n
    degree = ns.degree
    if n < 1 or degree < 1:
        raise UsageError(f"n and degree must be >= 1, got n={n}, degree={degree}")
    if ns.check_stabilization:
        return {"degree": degree, "n": [n, n + 1],
                "stable": stabilization_check(degree, n, n + 1)}
    exp = zmodel_expansion(n, degree)
    if ns.miwa:
        return _miwa_json(exp.log_in_times)
    coeffs = [{"exp": list(t), "val": _flat_eps(v)} for t, v in sorted(exp.quotient.c.items())]
    return {"vars": n, "degree": degree, "coeffs": coeffs}


# each option of `gwp1 charlier` -> the checks that read it; any other check refuses it
CHARLIER_READERS = {
    "eps": ("limit", "residuals", "asymptotics"),
    "a": ("orthogonality", "charpoly"),
    "L": ("limit",),
}


def cmd_charlier(ns: argparse.Namespace):
    from mpmath import mp  # only the numeric commands load mpmath
    check = ns.check
    prec = ns.prec
    for opt, readers in CHARLIER_READERS.items():
        if getattr(ns, opt) is not None and check not in readers:
            raise UsageError(f"--{opt} is read only by --check {', '.join(readers)}; "
                             f"--check {check} does not read it")
    eps = _parse_rat(ns.eps or "1")
    a = _parse_rat(ns.a or "1")
    if check == "orthogonality":
        tol = mp.mpf(10) ** -20
        rows = []
        for l in range(5):
            for lp in range(l, 5):
                val, target = ch.charlier_orthogonality_sum(l, lp, a, tol, prec)
                rows.append({
                    "input": {"l": l, "lp": lp, "a": str(a)},
                    "value": mp.nstr(val, 17),
                    "target": mp.nstr(target, 17),
                    "abs_error": mp.nstr(abs(val - target), 6),
                })
        return {"rows": rows}
    if check == "limit":
        rep = ch.charlier_scaling_limit_check(0, 0, eps, ns.L or [20, 40, 80], prec)
        rows = [
            {
                "input": {"L": L, "zeta": "0", "ell": 0, "eps": str(eps)},
                "value": mp.nstr(v, 17),
                "target": mp.nstr(rep.target, 17),
                "abs_error": mp.nstr(e, 6),
            }
            for (L, v, e) in rep.rows
        ]
        return {"rows": rows, "monotone_decreasing": rep.monotone_decreasing}
    if check == "charpoly":
        # past n = 8a the weights a^n/n! fall by 1/8 per step, which puts the
        # tail far below 2^-(prec/2); the cap bounds the run time, linear in n_max
        n_max = 60 + prec // 8 + math.ceil(8 * a)
        if n_max > 10_000:
            raise UsageError(f"charlier --check charpoly sums 60 + prec/8 + 8a atoms, "
                             f"at most 10000; got {n_max} (a={a}, prec={prec})")
        rows = []
        for L in (1, 2):
            for us in ((mp.mpf(3),), (mp.mpf(3), mp.mpf("4.5"))):
                val = ch.char_poly_expectation(L, a, us, prec)
                ref = ch.brute_force_expectation(L, a, us, n_max, prec)
                rows.append({
                    "input": {"L": L, "us": [float(u) for u in us], "a": str(a)},
                    "value": mp.nstr(val, 17),
                    "target": mp.nstr(ref, 17),
                    "abs_error": mp.nstr(abs(val - ref), 6),
                })
        return {"rows": rows}
    if check == "residuals":
        eps_list = ([eps] if ns.eps
                    else [Fraction(1, 2), Fraction(1), Fraction(2)])
        rows = []
        for e in eps_list:
            for z in ("5.25", "10.25", "20.25"):
                for which in ("f", "g"):
                    res = ch.difference_equation_residual(mp.mpf(z), e, prec, which)
                    rows.append({
                        "input": {"check": "difference", "z": z, "eps": str(e),
                                  "which": which},
                        "abs_error": mp.nstr(res, 6),
                    })
            for z in ("7.25", "12.25"):
                w = ch.numeric_wronskian(mp.mpf(z), e, prec)
                rows.append({
                    "input": {"check": "wronskian", "z": z, "eps": str(e)},
                    "value": mp.nstr(w, 17),
                    "target": "1",
                    "abs_error": mp.nstr(abs(w - 1), 6),
                })
        return {"rows": rows}
    if check == "asymptotics":
        rows = []
        for z in (20, 40):
            rep = ch.asymptotic_match_check(z, eps, 3, prec)
            rows.append(rep.to_json())
        return {"rows": rows}
    raise UsageError(f"unknown charlier check {check!r}")


def cmd_selftest(ns: argparse.Namespace):
    from .selftest import CHECKS, run_selftest
    names = [name for name, _ in CHECKS]
    if ns.only is not None and ns.only not in names:
        raise UsageError(f"unknown check {ns.only!r}; known checks: {', '.join(names)}")
    results = run_selftest(ns.only)
    doc = {"rows": [r.to_json() for r in results],
           "passed": all(r.passed for r in results)}
    return doc


COMMANDS = {
    "wave": cmd_wave,
    "wave-oracle": cmd_wave_oracle,
    "invariant": cmd_invariant,
    "free-energy": cmd_free_energy,
    "zmodel": cmd_zmodel,
    "charlier": cmd_charlier,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    common = _Parser(prog="gwp1", add_help=False)
    grp = common.add_argument_group("output options")
    # SUPPRESS keeps a subcommand parse from clobbering values given before it
    grp.add_argument("--format", choices=("json", "csv", "text"),
                     default=argparse.SUPPRESS)
    grp.add_argument("--output", default=argparse.SUPPRESS,
                     help="write output to this path instead of stdout")
    grp.add_argument("--prec", type=int, default=argparse.SUPPRESS,
                     help=f"precision in bits (default {DEFAULT_PREC})")
    parser = _Parser(
        prog="gwp1",
        parents=[common],
        description="Exact and numeric pipelines for stationary descendent "
        "invariants of the sphere",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("wave", parents=[common],
                       help="formal wave-series coefficients")
    p.add_argument("--which", choices=("f", "g"), required=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("wave-oracle", parents=[common],
                       help="g-wave by the independent triangular solve")
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("invariant", parents=[common],
                       help="stationary descendent invariant")
    p.add_argument("--ks", required=True, help="comma-separated insertion indices")
    p.add_argument("--by-genus", action="store_true", dest="by_genus")

    p = sub.add_parser("free-energy", parents=[common],
                       help="generating-function coefficients")
    p.add_argument("--max-weight", type=int, required=True, dest="max_weight")

    p = sub.add_parser("zmodel", parents=[common],
                       help="determinantal-model expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    only = p.add_mutually_exclusive_group()  # the check reports no expansion
    only.add_argument("--miwa", action="store_true",
                      help="report the logarithm in the time variables")
    only.add_argument("--check-stabilization", action="store_true",
                      dest="check_stabilization")

    p = sub.add_parser("charlier", parents=[common],
                       help="arbitrary-precision numeric checks")
    p.add_argument("--check", required=True,
                   choices=("orthogonality", "limit", "charpoly", "asymptotics",
                            "residuals"))
    p.add_argument("--eps", help='rational "p/q" for limit, residuals and asymptotics '
                                 '(default 1; residuals sweeps 1/2, 1 and 2)')
    p.add_argument("--a", help='measure parameter "p/q" for orthogonality and charpoly '
                               '(default 1)')
    p.add_argument("--L", type=int, nargs="+", help="sizes for the limit check")

    p = sub.add_parser("selftest", parents=[common],
                       help="run the verification suite")
    p.add_argument("--only", help="run a single named check")
    return parser, common  # the whole command line, and its output options alone


def _parse(parser, common, argv) -> argparse.Namespace:
    """argparse takes the token after an unknown option for the command and names that token;
    an unknown option before the command is named instead."""
    try:
        return parser.parse_args(argv)
    except UsageError:
        rest = common.parse_known_args(argv)[1]  # raises on a malformed output option
        if rest and rest[0].startswith("-"):
            raise UsageError(f"{parser.prog}: unrecognized arguments: {rest[0]}") from None
        raise


def main(argv=None) -> int:
    parser, common = _build_parser()
    try:
        ns = _parse(parser, common, argv)
        if not ns.command:
            parser.print_usage(sys.stderr)
            return 2
        ns.prec = getattr(ns, "prec", DEFAULT_PREC)
        if ns.prec < 8:
            raise UsageError(f"precision must be at least 8 bits, got {ns.prec}")
        doc = COMMANDS[ns.command](ns)
        _emit(doc, getattr(ns, "format", "json"), getattr(ns, "output", None))
        if ns.command == "selftest" and not doc["passed"]:
            return 1
        return 0
    except (UsageError, ValueError) as exc:  # a ValueError is a limit the library checks
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
