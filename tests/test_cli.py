"""CLI surface: output shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp

import gwp1
from gwp1 import invariants, zmodel
from gwp1.charlier import charlier_scaling_limit_check
from gwp1.cli import main
from gwp1.epslaurent import EpsLaurent

GOLDEN_DIR = Path(__file__).parent / "golden"

# golden stdout file -> CLI arguments that produce it
GOLDEN = {
    "invariant_0_2": ["invariant", "--ks", "0,2"],
    "invariant_2_2_2": ["invariant", "--ks", "2,2,2"],
    "invariant_0_0_0_0": ["invariant", "--ks", "0,0,0,0"],
    "invariant_2_by_genus": ["invariant", "--ks", "2", "--by-genus"],
    "free_energy_3": ["free-energy", "--max-weight", "3"],
    "free_energy_4": ["free-energy", "--max-weight", "4"],
    "zmodel_4_3": ["zmodel", "--n", "4", "--degree", "3"],
    "zmodel_5_4": ["zmodel", "--n", "5", "--degree", "4"],
    "zmodel_4_3_miwa": ["zmodel", "--n", "4", "--degree", "3", "--miwa"],
    "zmodel_5_4_miwa": ["zmodel", "--n", "5", "--degree", "4", "--miwa"],
    "charlier_limit": ["charlier", "--check", "limit"],
    "charlier_asymptotics": ["charlier", "--check", "asymptotics"],
    "charlier_orthogonality": ["charlier", "--check", "orthogonality", "--a", "7/3",
                               "--prec", "256"],
    "charlier_charpoly": ["charlier", "--check", "charpoly", "--a", "7/3", "--prec", "256"],
    "wave_f_8": ["wave", "--which", "f", "--order", "8"],
    "wave_g_8": ["wave", "--which", "g", "--order", "8"],
    "wave_oracle_8": ["wave-oracle", "--order", "8"],
}


# every argv here exits 2 with empty stdout and a stderr that names the limit and the
# offending value: argv -> (limit, value)
USAGE_ERRORS = {
    ("charlier", "--check", "residuals", "--eps", "0"): ("eps > 0", "eps=0"),
    ("charlier", "--check", "residuals", "--eps", "-1"): ("eps > 0", "eps=-1"),
    ("charlier", "--check", "asymptotics", "--eps", "0"): ("eps > 0", "eps=0"),
    ("charlier", "--check", "asymptotics", "--eps", "-1"): ("eps > 0", "eps=-1"),
    ("charlier", "--check", "limit", "--eps=-1/2"): ("eps > 0", "eps=-1/2"),
    ("charlier", "--check", "limit", "--L", "0"): ("L >= ell + 1 = 1", "L=0"),
    ("charlier", "--check", "limit", "--L", "20", "-3"): ("L >= ell + 1 = 1", "L=-3"),
    ("charlier", "--check", "orthogonality", "--a", "0"): ("a must be positive", "a=0"),
    ("charlier", "--check", "orthogonality", "--a=-1"): ("a must be positive", "a=-1"),
    ("charlier", "--check", "charpoly", "--a", "0"): ("a must be positive", "a=0"),
    ("charlier", "--check", "charpoly", "--a=-2/3"): ("a must be positive", "a=-2/3"),
    ("charlier", "--check", "charpoly", "--a", "2000"):
        ("60 + prec/8 + 8a atoms, at most 10000", "got 16076 (a=2000, prec=128)"),
    ("charlier", "--check", "charpoly", "--prec", "80000"):
        ("60 + prec/8 + 8a atoms, at most 10000", "got 10068 (a=1, prec=80000)"),
    ("charlier", "--check", "orthogonality", "--a", "1000000"):
        ("a must be at most 10000", "got a=1000000"),
    ("charlier", "--check", "limit", "--L", "20"): ("at least two sizes", "got [20]"),
    ("charlier", "--check", "limit", "--L", "20", "40", "20"): ("distinct", "repeated: [20]"),
    ("zmodel", "--n", "6", "--degree", "6"): ("nvars > degree", "nvars=6, degree=6"),
    ("zmodel", "--n", "6", "--degree", "7", "--check-stabilization"):
        ("nvars > degree", "nvars=6, degree=7"),
    ("zmodel", "--n", "3", "--degree", "3"): ("nvars > degree", "nvars=3, degree=3"),
    ("zmodel", "--n", "3", "--degree", "3", "--check-stabilization"):
        ("nvars > degree", "nvars=3, degree=3"),
    ("zmodel", "--n", "31", "--degree", "30"):
        ("at most 250000 entries", "= 232714176627630544 exponent tuples of n = 31"),
    ("zmodel", "--n", "10", "--degree", "9"):
        ("at most 250000 entries", "= 92378 exponent tuples of n = 10"),
    ("zmodel", "--n", "2000", "--degree", "1"):
        ("at most 250000 entries", "= 2001 exponent tuples of n = 2000"),
    ("zmodel", "--n", "1000001", "--degree", "1000000"):
        ("at most 250000 entries", "> 2^64 exponent tuples of n = 1000001"),
    ("invariant", "--ks", "x,y"): ("malformed ks list", "'x,y'"),
    ("invariant", "--ks", "1,-1"): ("k must be >= 0", "ks=(1, -1)"),
    ("wave", "--which", "f", "--order", "-1"): ("order must be >= 0", "order=-1"),
    ("wave-oracle", "--order", "0"): ("order must be >= 1", "order=0"),
    ("free-energy", "--max-weight", "0"): ("max weight must be >= 1", "got 0"),
    ("zmodel", "--n", "3", "--degree", "0"): ("n and degree must be >= 1", "degree=0"),
    ("zmodel", "--n", "3", "--degree", "-1"): ("n and degree must be >= 1", "degree=-1"),
    ("free-energy", "--max-weight", "-1"): ("max weight must be >= 1", "got -1"),
    ("invariant", "--ks", "2", "--no-stability"): ("unrecognized arguments", "--no-stability"),
    ("--config", "f", "invariant", "--ks", "0"): ("unrecognized arguments", "--config"),
    ("zmodel", "--n", "3", "--degree", "2", "--miwa", "--check-stabilization"):
        ("--check-stabilization: not allowed with", "--miwa"),
    ("--prec", "7", "wave", "--which", "f", "--order", "1"): ("at least 8 bits", "got 7"),
}


def assert_usage_error(capsys, argv):
    limit, value = USAGE_ERRORS[tuple(argv)]
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and limit in err and value in err
    return err


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(capsys, name):
    code, out = run(capsys, *GOLDEN[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.txt").read_bytes()


def test_python_m_gwp1_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(gwp1.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "gwp1", "selftest", "--only", "charlier-orthogonality"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_wave_g_order_zero(capsys):
    code, doc = run_json(capsys, "wave", "--which", "g", "--order", "0")
    assert code == 0
    assert doc == {"0": "1"}


def test_wave_f_order_three(capsys):
    code, doc = run_json(capsys, "wave", "--which", "f", "--order", "3")
    assert code == 0
    assert doc["-1"] == {"-2": "1", "0": "-1/24"}
    assert doc["-3"]["0"] == "1003/414720"


def test_wave_matches_oracle(capsys):
    _, doc_g = run_json(capsys, "wave", "--which", "g", "--order", "6")
    _, doc_o = run_json(capsys, "wave-oracle", "--order", "6")
    assert doc_g == doc_o


def test_invariant_examples(capsys):
    code, doc = run_json(capsys, "invariant", "--ks", "0")
    assert code == 0 and doc == {"-2": "1", "0": "-1/24"}
    _, doc = run_json(capsys, "invariant", "--ks", "0,0")
    assert doc == {"-2": "1"}
    _, doc = run_json(capsys, "invariant", "--ks", "1")
    assert doc == {}


def test_invariant_by_genus(capsys):
    code, doc = run_json(capsys, "invariant", "--ks", "2", "--by-genus")
    assert code == 0
    assert doc == {"0,2": "1/4", "1,1": "1/24", "2,0": "7/5760"}


def test_odd_weight_invariant_is_empty_at_ten_points(capsys):
    # sum(k) = 11: 0 by the selection rule, which returns before any trace
    ks = "2,1,1,1,1,1,1,1,1,1"
    assert run_json(capsys, "invariant", "--ks", ks) == (0, {})
    assert run_json(capsys, "invariant", "--ks", ks, "--by-genus") == (0, {})


def test_invariant_usage_error(capsys):
    assert_usage_error(capsys, ["invariant", "--ks", "x,y"])


def test_missing_command_is_usage_error():
    assert main([]) == 2


def test_free_energy(capsys):
    code, doc = run_json(capsys, "free-energy", "--max-weight", "2")
    assert code == 0
    assert doc == {"0": {"-2": "1", "0": "-1/24"}, "0,0": {"-2": "1/2"}}


def test_zmodel_miwa_and_stabilization(capsys):
    code, doc = run_json(capsys, "zmodel", "--n", "3", "--degree", "2", "--miwa")
    assert code == 0
    assert doc == {"0": {"-2": "1", "0": "-1/24"}, "0,0": "1/2*eps^-2"} or doc == {
        "0": {"-2": "1", "0": "-1/24"},
        "0,0": {"-2": "1/2"},
    }
    code, doc = run_json(
        capsys, "zmodel", "--n", "2", "--degree", "1", "--check-stabilization"
    )
    assert code == 0 and doc["stable"] is True


@pytest.mark.parametrize("argv", [
    ["zmodel", "--n", "6", "--degree", "1"],
    ["zmodel", "--n", "5", "--degree", "1", "--check-stabilization"],
])
def test_zmodel_past_old_window_matches_free_energy(capsys, argv):
    # six variables were out of reach of the shifted-wave columns
    code, doc = run_json(capsys, *argv)
    assert code == 0
    _, fe = run_json(capsys, "free-energy", "--max-weight", "1")
    if "--check-stabilization" in argv:
        assert doc == {"degree": 1, "n": [5, 6], "stable": True}
        _, doc = run_json(capsys, "zmodel", "--n", "6", "--degree", "1", "--miwa")
        assert doc == fe
    else:
        # 1 + pi_(1) p_1: the t_0 coefficient on each z_j^(-1)
        assert [c["exp"] for c in doc["coeffs"]] == sorted(
            [[-1 if i == j else 0 for i in range(6)] for j in range(6)]
        ) + [[0] * 6]
        assert all(c["val"] == fe["0"] for c in doc["coeffs"][:-1])
        assert doc["coeffs"][-1]["val"] == "1"


@pytest.mark.parametrize("argv", [
    ["zmodel", "--n", "6", "--degree", "6"],
    ["zmodel", "--n", "6", "--degree", "7", "--check-stabilization"],
])
def test_zmodel_past_window_is_usage_error(capsys, argv):
    # the only window left is n > degree: six variables no longer hit a
    # separate variable-count limit
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["zmodel", "--n", "3", "--degree", "3"],
    ["zmodel", "--n", "3", "--degree", "3", "--check-stabilization"],
])
def test_zmodel_degree_not_below_n_is_usage_error(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["invariant", "--ks", "2", "--no-stability"],
    ["zmodel", "--n", "3", "--degree", "2", "--miwa", "--check-stabilization"],
])
def test_flags_that_exclude_each_other_are_usage_errors(capsys, argv):
    # every invariant is checked, so no flag skips the check; --check-stabilization reports
    # no expansion
    assert_usage_error(capsys, argv)


def test_unknown_option_before_the_command_is_named(capsys):
    # argparse takes the "f" after an option it does not know for the command
    assert "'f'" not in assert_usage_error(capsys, ["--config", "f", "invariant", "--ks", "0"])


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "free-energy", "--max-weight", "2")
    _, out2 = run(capsys, "free-energy", "--max-weight", "2")
    assert out1 == out2


def test_global_flags_after_subcommand(capsys):
    code, out = run(capsys, "wave", "--which", "g", "--order", "1", "--format", "text")
    assert code == 0
    assert "json" not in out and ":" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["invariant", "--ks", "0", "--output", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == {"-2": "1", "0": "-1/24"}


def test_output_path_that_cannot_be_opened_is_usage_error(tmp_path, capsys):
    # a path that cannot be written is a bad input, not a computational failure
    for path in (tmp_path / "missing" / "out.json", tmp_path):
        code = main(["invariant", "--ks", "2", "--output", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and f"--output {path}" in err


def test_removed_settings_are_usage_errors(monkeypatch, capsys):
    # --format, --output and --prec are the only settings
    for argv in (["--config", "f", "invariant", "--ks", "0"],
                 ["selftest", "--only", "wave-coefficients", "--json"]):
        assert run(capsys, *argv) == (2, "")
    _, plain = run(capsys, "charlier", "--check", "limit")
    monkeypatch.setenv("GWP1_PREC", "abc")
    assert run(capsys, "charlier", "--check", "limit") == (0, plain)


def test_charlier_limit_rows(capsys):
    code, doc = run_json(
        capsys, "charlier", "--check", "limit", "--L", "10", "20", "--prec", "96"
    )
    assert code == 0
    assert [r["input"]["L"] for r in doc["rows"]] == [10, 20]
    assert doc["monotone_decreasing"] is True
    for row in doc["rows"]:
        assert set(row) == {"input", "value", "target", "abs_error"}
    # at low precision the report's own error, taken with the guard bits, differs from
    # |value - target| of the values rounded to --prec
    code, doc = run_json(capsys, "charlier", "--check", "limit", "--prec", "16")
    rep = charlier_scaling_limit_check(0, 0, 1, [20, 40, 80], 16)
    assert code == 0
    assert [r["abs_error"] for r in doc["rows"]] == [mp.nstr(e, 6) for _, _, e in rep.rows]


def test_charlier_limit_repeated_size_is_usage_error(capsys):
    # a repeated L would compare a row with itself in the monotonicity flag
    assert_usage_error(capsys, ["charlier", "--check", "limit", "--L", "20", "40", "20"])


def test_charlier_residual_rows(capsys):
    code, doc = run_json(capsys, "charlier", "--check", "residuals", "--eps", "1")
    assert code == 0
    kinds = [r["input"]["check"] for r in doc["rows"]]
    assert kinds.count("difference") == 6 and kinds.count("wronskian") == 2
    for row in doc["rows"]:
        assert row["input"]["eps"] == "1"
        assert float(row["abs_error"]) < 2.0**-64
        if row["input"]["check"] == "difference":  # no target: the residual is the error
            assert set(row) == {"input", "abs_error"}
        else:
            assert set(row) == {"input", "value", "target", "abs_error"}
            assert row["target"] == "1"
    code, doc = run_json(capsys, "charlier", "--check", "residuals")  # sweeps 1/2, 1 and 2
    assert code == 0 and len(doc["rows"]) == 24
    assert [r["input"]["eps"] for r in doc["rows"]] == ["1/2"] * 8 + ["1"] * 8 + ["2"] * 8


@pytest.mark.parametrize("option", [["--a", "16"], ["--prec", "1024"]])
def test_charlier_charpoly_sizes_its_sum(capsys, option):
    # the brute-force sum reaches further for larger a and precision
    code, doc = run_json(capsys, "charlier", "--check", "charpoly", *option)
    assert code == 0 and len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert float(row["abs_error"]) < 1e-15


def test_selftest_single_check(capsys):
    code, doc = run_json(capsys, "selftest", "--only", "wave-coefficients")
    assert code == 0
    assert doc["passed"] is True
    assert doc["rows"][0]["name"] == "wave-coefficients"


def test_selftest_unknown_check_fails(capsys):
    assert main(["selftest", "--only", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "'nonexistent'" in err
    assert "wave-coefficients" in err and "asymptotics" in err


@pytest.mark.parametrize("argv", [list(argv) for argv in USAGE_ERRORS if argv[0] == "charlier"
                                  and argv[-3:] != ("20", "40", "20")])
def test_charlier_nonpositive_eps_is_usage_error(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("check, eps, value", [
    ("limit", "1e-9", "x=2.0e+9"), ("residuals", "1e-9", "x=2.0e+9"),
    ("asymptotics", "1e-9", "x=2.0e+9"), ("residuals", "1/10000", "x=20000.0"),
    ("residuals", "1e-400", "x=2.0e+400"),
])
def test_charlier_eps_past_the_bessel_bound_is_usage_error(capsys, check, eps, value):
    # x = 2/eps past the bound is refused before any Bessel sum, so the command returns at once
    start = time.perf_counter()
    code = main(["charlier", "--check", check, "--eps", eps])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and time.perf_counter() - start < 2
    assert err.startswith("usage error: ") and "x <= 4096" in err and value in err


@pytest.mark.parametrize("argv", [
    ["zmodel", "--n", "31", "--degree", "30"],
    ["zmodel", "--n", "10", "--degree", "9"],
    ["zmodel", "--n", "2000", "--degree", "1"],
    ["zmodel", "--n", "1000001", "--degree", "1000000"],
])
def test_zmodel_quotient_is_counted_before_it_is_built(monkeypatch, capsys, argv):
    # the printer's n C(n + degree, degree) exponents are refused before any Plucker coordinate
    def refuse(degree):
        raise AssertionError("a refused quotient built a Plucker coordinate")
    monkeypatch.setattr(zmodel, "plucker_coordinates", refuse)
    start = time.perf_counter()
    assert_usage_error(capsys, argv)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("flag", ["--miwa", "--check-stabilization"])
def test_zmodel_quotient_bound_leaves_the_log_and_the_check_alone(capsys, flag):
    # neither prints the quotient, so its count does not limit them
    code, out = run(capsys, "zmodel", "--n", "10", "--degree", "9", flag)
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv", [
    ["invariant", "--ks", "1,-1"],
    ["wave", "--which", "f", "--order", "-1"],
    ["wave-oracle", "--order", "0"],
    ["free-energy", "--max-weight", "0"],
    ["free-energy", "--max-weight", "-1"],
    ["zmodel", "--n", "3", "--degree", "0"],
    ["zmodel", "--n", "3", "--degree", "-1"],
    ["--prec", "7", "wave", "--which", "f", "--order", "1"],
])
def test_usage_error_names_limit_and_value(capsys, argv):
    # limits the library checks reach the command line as its ValueError
    assert_usage_error(capsys, argv)


def test_internal_fault_is_not_a_usage_error(monkeypatch, capsys):
    # an odd eps-exponent is a computed value gone wrong, not a bad input
    odd = invariants.InvariantRecord((2,), EpsLaurent.mono(-1))
    monkeypatch.setattr(invariants, "n_point_invariant", lambda ks: odd)
    with pytest.raises(RuntimeError, match="unexpected eps-exponent -1"):
        invariants.invariant_by_genus((2,))
    assert main(["invariant", "--ks", "2", "--by-genus"]) == 1
    assert "error: RuntimeError" in capsys.readouterr().err


def run_fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports gwp1 from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(gwp1.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the numeric modules that have run: until then each sits in sys.modules as a lazy module,
# which any attribute read would run, so only its type is read
NUMERIC_RAN = "[m for m in ('gwp1.special', 'gwp1.charlier') if type(sys.modules[m]) is type(sys)]"


def test_library_import_leaves_the_cli_selftest_and_reflection_out():
    # the library does not depend on its shell or its verification registry, its
    # records are named tuples, which need neither dataclasses nor inspect, mpmath loads
    # on the first numeric call, and each numeric module runs at the first read of one of
    # its names: neither the bench's `from gwp1 import charlier as ch` nor an exact query
    # runs it
    out = run_fresh("\n".join([
        "import sys, gwp1",
        "print(sorted({'dataclasses', 'inspect', 'gwp1.selftest', 'gwp1.cli', 'mpmath'} "
        "& set(sys.modules)), " + NUMERIC_RAN + ")",
        "from gwp1 import charlier as ch",
        "print(" + NUMERIC_RAN + ")",
        "gwp1.n_point_invariant((2, 2)), gwp1.zmodel_expansion(5, 3).log_in_times",
        "gwp1.stabilization_check(2, 4, 5), gwp1.free_energy(6)",
        "print(" + NUMERIC_RAN + ", 'mpmath' in sys.modules)",
        "from fractions import Fraction",
        "value = gwp1.bessel_j(Fraction(1, 2), 1, 64)",
        "from mpmath import mp; mp.prec = 128",
        "print(abs(value - mp.besselj(mp.mpf(1) / 2, 1)) <= mp.mpf(2) ** -60, " + NUMERIC_RAN + ")",
        "from gwp1 import char_poly_expectation",
        "print(char_poly_expectation is ch.char_poly_expectation, " + NUMERIC_RAN + ")",
        "print(all(hasattr(gwp1, name) for name in gwp1.__all__), "
        "set(gwp1.__all__) <= set(dir(gwp1)))",
        "from gwp1.selftest import run_selftest"]))
    assert out.splitlines() == [
        "[] []", "[]", "[] False", "True ['gwp1.special']",
        "True ['gwp1.special', 'gwp1.charlier']", "True True"]


def test_exact_commands_load_neither_mpmath_nor_the_selftest():
    out = run_fresh(
        "import io, sys; from gwp1.cli import main; sys.stdout = io.StringIO(); "
        "codes = [main(['invariant', '--ks', '2']), main(['free-energy', '--max-weight', '3']), "
        "main(['zmodel', '--n', '4', '--degree', '3']), "
        "main(['wave', '--which', 'f', '--order', '3'])]; sys.stdout = sys.__stdout__; "
        "print(codes, sorted({'gwp1.selftest', 'mpmath'} & set(sys.modules)), "
        + NUMERIC_RAN + ")")
    assert out == "[0, 0, 0, 0] [] []\n"


def test_exact_selftest_check_leaves_mpmath_out():
    out = run_fresh(
        "import sys; from gwp1.selftest import run_selftest; "
        "print([r.passed for r in run_selftest('wave-coefficients')], 'mpmath' in sys.modules, "
        + NUMERIC_RAN + ")")
    assert out == "[True] False []\n"


@pytest.mark.parametrize("argv, option, readers", [
    (["--check", "charpoly", "--L", "0"], "--L", "limit"),
    (["--check", "asymptotics", "--L", "20", "40"], "--L", "limit"),
    (["--check", "limit", "--a", "2"], "--a", "orthogonality, charpoly"),
    (["--check", "residuals", "--a", "1"], "--a", "orthogonality, charpoly"),
    (["--check", "orthogonality", "--eps", "1/2"], "--eps", "limit, residuals, asymptotics"),
    (["--check", "charpoly", "--eps", "1"], "--eps", "limit, residuals, asymptotics"),
])
def test_charlier_option_its_check_does_not_read_is_usage_error(capsys, argv, option, readers):
    # an option the chosen check never reads is refused, not silently ignored
    code = main(["charlier", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"{option} is read only by --check {readers}; --check {argv[1]} does not" in err
