"""CLI surface: output shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwp1
from gwp1.cli import main

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


def test_invariant_usage_error(capsys):
    code = main(["invariant", "--ks", "x,y"])
    assert code == 2


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
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error" in err and "n > degree" in err and "n=6" in err
    assert "n <= 5" not in err and "needs 6 variables" not in err


@pytest.mark.parametrize("argv", [
    ["zmodel", "--n", "3", "--degree", "3"],
    ["zmodel", "--n", "3", "--degree", "3", "--check-stabilization"],
])
def test_zmodel_degree_not_below_n_is_usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error" in err and "n > degree" in err
    assert "n=3" in err and "degree=3" in err


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


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    code, out = run(capsys, "--config", str(cfg), "invariant", "--ks", "0")
    assert code == 0
    assert out.splitlines()[0] == "key,value"


@pytest.mark.parametrize("config, key", [({"format": "xml"}, "format"),
                                         ({"bogus": 1}, "bogus")])
def test_config_value_is_checked_like_its_flag(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["--config", str(cfg), "invariant", "--ks", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "usage error" in err and repr(key) in err


def test_bad_prec_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GWP1_PREC", "abc")
    code = main(["charlier", "--check", "limit"])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error" in err and "GWP1_PREC" in err


def test_charlier_limit_rows(capsys):
    code, doc = run_json(
        capsys, "charlier", "--check", "limit", "--L", "10", "20", "--prec", "96"
    )
    assert code == 0
    assert [r["input"]["L"] for r in doc["rows"]] == [10, 20]
    assert doc["monotone_decreasing"] is True
    for row in doc["rows"]:
        assert set(row) == {"input", "value", "target", "abs_error"}


def test_charlier_limit_repeated_size_is_usage_error(capsys):
    # a repeated L would compare a row with itself in the monotonicity flag
    code = main(["charlier", "--check", "limit", "--L", "20", "40", "20"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "usage error" in err and "distinct L" in err and "got 20 more than once" in err


def test_charlier_residual_rows(capsys):
    code, doc = run_json(capsys, "charlier", "--check", "residuals", "--eps", "1")
    assert code == 0
    kinds = [r["input"]["check"] for r in doc["rows"]]
    assert kinds.count("difference") == 6 and kinds.count("wronskian") == 2
    for row in doc["rows"]:
        assert row["input"]["eps"] == "1"
        assert float(row["abs_error"]) < 2.0**-64


@pytest.mark.parametrize("option", [["--a", "16"], ["--prec", "1024"]])
def test_charlier_charpoly_sizes_its_sum(capsys, option):
    # the brute-force sum reaches further for larger a and precision
    code, doc = run_json(capsys, "charlier", "--check", "charpoly", *option)
    assert code == 0 and len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert float(row["abs_error"]) < 1e-15


def test_selftest_single_check(capsys):
    code, doc = run_json(capsys, "selftest", "--only", "wave-coefficients", "--json")
    assert code == 0
    assert doc["passed"] is True
    assert doc["rows"][0]["name"] == "wave-coefficients"


def test_selftest_unknown_check_fails(capsys):
    assert main(["selftest", "--only", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "'nonexistent'" in err
    assert "wave-coefficients" in err and "asymptotics" in err


@pytest.mark.parametrize("argv", [
    ["charlier", "--check", "residuals", "--eps", "0"],
    ["charlier", "--check", "residuals", "--eps", "-1"],
    ["charlier", "--check", "asymptotics", "--eps", "0"],
    ["charlier", "--check", "asymptotics", "--eps", "-1"],
    ["charlier", "--check", "limit", "--eps=-1/2"],
    ["charlier", "--check", "limit", "--L", "0"],
    ["charlier", "--check", "limit", "--L", "20", "-3"],
    ["charlier", "--check", "orthogonality", "--a", "0"],
    ["charlier", "--check", "orthogonality", "--a=-1"],
    ["charlier", "--check", "charpoly", "--a", "0"],
    ["charlier", "--check", "charpoly", "--a=-2/3"],
    ["charlier", "--check", "charpoly", "--a", "2000"],
    ["charlier", "--check", "charpoly", "--prec", "80000"],
    ["charlier", "--check", "limit", "--L", "20"],
])
def test_charlier_nonpositive_eps_is_usage_error(capsys, argv):
    # the message names the limit of the offending option
    if argv[-2:] == ["--L", "20"]:
        limit = "at least two sizes"
    elif "--L" in argv:
        limit = "L >= 1"
    elif argv[-1] in ("2000", "80000"):
        limit = "60 + prec/8 + 8a atoms, at most 10000"
    elif any(arg.startswith("--a") for arg in argv):
        limit = "a > 0"
    else:
        limit = "eps > 0"
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "usage error" in err and limit in err
