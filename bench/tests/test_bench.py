"""Tests of the benchmark itself: the output check, failure accounting, the
tracer's transparency and coverage.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import jobs as joblib  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_gwp1()
REFERENCE = json.loads(run.REFERENCE.read_text())


def _run(workload, jobs, traced):
    plain, traced_result = run.run_list(workload, jobs, time.monotonic() + 150, trace=traced)
    return traced_result if traced else plain


RESIDUE = [("invariant", [0, 0]), ("invariant", [2])]
DETERMINANTAL = [("zmodel", [3, 2]), ("stabilization", [1, 3, 4])]
NUMERIC = [("residual", ["5.25", "1/2", "f", 256]),
           ("orthogonality", ["2", 3, 300]),
           ("asymptotic", [20, "1", 3, 256]),
           ("scaling", ["0", 0, "1", [40, 80, 160, 320], 256])]
CASES = {"residue-cold": RESIDUE, "determinantal-cold": DETERMINANTAL, "numeric-sweep": NUMERIC}


@pytest.fixture(scope="module")
def runs():
    """Each small list run untraced and traced."""
    return {w: run.run_list(w, js, time.monotonic() + 150, trace=True) for w, js in CASES.items()}


def test_outputs_match_reference(runs):
    for workload, (plain, traced) in runs.items():
        for result in (plain, traced):
            failures, mismatches = run.check(CASES[workload], result["records"], REFERENCE)
            assert not failures and not mismatches, (workload, failures, mismatches)


def test_corrupted_reference_is_a_failure(runs):
    plain, _ = runs["residue-cold"]
    bad = copy.deepcopy(REFERENCE)
    key = joblib.reference_key("invariant", [0, 0])
    bad[key] = {"-2": "2"}
    records = copy.deepcopy(plain["records"])
    failures, mismatches = run.check(RESIDUE, records, bad)
    assert [m["job"] for m in mismatches] == [["invariant", [0, 0]]]
    failed = sum(1 for r in records if not r["ok"])
    assert failed / len(records) > 0

    # a numeric reference off by more than the precision-tied tolerance
    plain, _ = runs["numeric-sweep"]
    bad = copy.deepcopy(REFERENCE)
    key = joblib.reference_key(*NUMERIC[2])
    bad[key]["abs_error"] = "1" + bad[key]["abs_error"]
    _, mismatches = run.check(NUMERIC, copy.deepcopy(plain["records"]), bad)
    assert [m["job"][0] for m in mismatches] == ["asymptotic"]


def test_window_error_is_failed_and_infinite_latency():
    jobs = [("zmodel", [6, 1])] + [("zmodel", [3, 1])] * 11
    result = _run("determinantal-cold", jobs, False)
    failures, mismatches = run.check(jobs, result["records"], REFERENCE)
    assert [f["error"] for f in failures] == ["WindowError"]
    assert not mismatches
    lat, info = run.latency_metrics(result["records"])
    assert info == {"percentile": 16, "jobs": 12, "beyond": 10}
    assert math.isfinite(lat["job_tail_s"])
    assert run.percentile([r["seconds"] if r["ok"] else math.inf
                           for r in result["records"]], 100) == math.inf


def test_times_are_rescaled_to_reference_speed():
    slow = {"ok": True, "seconds": 1.0, "probe_s": 2 * run.PROBE_REF_S}
    lat, _ = run.latency_metrics([slow] * 11)
    assert lat["job_p50_s"] == pytest.approx(0.5)
    raw, _ = run.latency_metrics([slow] * 11, at_reference_speed=False)
    assert raw["job_p50_s"] == 1.0
    assert run.wall_at_reference_speed({"records": [slow] * 11, "wall_s": 12.0}) == pytest.approx(6.0)


def test_traced_and_untraced_outputs_identical(runs):
    for workload, (plain, traced) in runs.items():
        for a, b in zip(plain["records"], traced["records"]):
            assert "output" in a and a["output"] == b["output"], workload


def test_layers_report_work(runs):
    def calls(workload):
        plain, traced = runs[workload]
        records = copy.deepcopy(traced["records"])
        run.check(CASES[workload], records, REFERENCE)
        m = run.layer_metrics(traced, plain, records)
        return {k: v for k, (v, _) in m.items()}

    res = calls("residue-cold")
    for key in ("epslaurent.mul.calls", "epslaurent.add.calls", "zseries.mul.calls",
                "zseries.shift.calls", "multiseries.mul.calls",
                "waves.solve_formal_wave.calls", "invariants.n_point_invariant.calls"):
        assert res[key] > 0, key
    assert res["multiseries.mul.terms_out"] > 0 and res["multiseries.max_terms"] > 0
    assert res["zmodel.zmodel_expansion.calls"] == 0 and res["charlier.bessel_j.calls"] == 0

    det = calls("determinantal-cold")
    for key in ("epslaurent.mul.calls", "zseries.shift.calls", "zseries.invert.calls",
                "multiseries.divide_by_difference.calls", "waves.wave_shift.calls",
                "zmodel.zmodel_expansion.calls", "miwa.symmetric_to_miwa.calls"):
        assert det[key] > 0, key
    assert det["invariants.n_point_invariant.calls"] == 0
    assert 0 <= det["zmodel.zmodel_entry.hit_ratio"] <= 1

    num = calls("numeric-sweep")
    for key in ("charlier.bessel_j.calls", "charlier.charlier_poly.calls"):
        assert num[key] > 0, key
    assert num["charlier.self_s"] > 0
    assert num["multiseries.mul.calls"] == 0 and num["zmodel.zmodel_expansion.calls"] == 0


def test_call_counts_repeat_exactly():
    jobs = [("invariant", [3]), ("zmodel", [3, 1])]
    a = _run("residue-cold", jobs, True)["trace"]["stats"]
    b = _run("residue-cold", jobs, True)["trace"]["stats"]
    assert {k: c for k, (c, _) in a.items()} == {k: c for k, (c, _) in b.items()}


def test_tracer_uninstall_restores_every_binding():
    import gwp1
    from gwp1 import charlier, epslaurent, zmodel

    before = (gwp1.solve_formal_wave, zmodel.solve_formal_wave, charlier.solve_formal_wave,
              epslaurent.EpsLaurent.__mul__, epslaurent.EpsLaurent.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert zmodel.solve_formal_wave is not before[1]
        assert charlier.solve_formal_wave is zmodel.solve_formal_wave
        assert epslaurent.EpsLaurent.__rmul__ is epslaurent.EpsLaurent.__mul__
    finally:
        tracer.uninstall()
    after = (gwp1.solve_formal_wave, zmodel.solve_formal_wave, charlier.solve_formal_wave,
             epslaurent.EpsLaurent.__mul__, epslaurent.EpsLaurent.__rmul__)
    assert all(x is y for x, y in zip(before, after))


def test_job_lists_are_seeded_and_fixed_multisets():
    for workload in joblib.WORKLOADS:
        a = joblib.job_list(workload, 1, 25)
        assert a == joblib.job_list(workload, 1, 25)
        b = joblib.job_list(workload, 2, 25)
        assert a != b
        strip = (lambda js: sorted(json.dumps([k, x[:-1]]) for k, x in js)) \
            if workload == "numeric-sweep" else (lambda js: sorted(map(json.dumps, js)))
        assert strip(a) == strip(b)
        for kind, args in a:
            assert joblib.reference_key(kind, args) in REFERENCE
    precs = [args[-1] for _, args in joblib.job_list("numeric-sweep", 3, 25)]
    assert min(precs) >= 256 and max(precs) <= 768


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "residue-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
