#!/usr/bin/env python3
"""gwp1 benchmark: seeded job lists run against the public gwp1 API.

    python3 bench/run.py --workload residue-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gwp1 is imported from its ``src``.
Workloads (see bench/README.md): ``residue-cold`` and ``determinantal-cold``
fork one fresh job process per job from a parent that has imported gwp1 and
computed nothing; ``numeric-sweep`` runs its whole list in one warm job
process.  At most one job process exists at a time.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, their
times rescaled to a reference host speed by ``speed_probe`` (bench/README.md
says why); with ``--trace 1`` the list runs untraced and traced (see
``run_list``), and the last line holds the per-layer metrics.  The line before
it is a report with the host facts, the error rate, the tail percentile used
and the times as measured.  Per-job latencies, and the spans of a traced run,
go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs as joblib
from tracer import Tracer, merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".bench_out"

SETUP_STARTS = 15  # fresh interpreters timed per run for setup_s
SETUP_TIMEOUT_S = 60.0
# speed_probe() on the reference host (2-core x86-64, CPython 3.11) in a
# quiet period.  Time metrics are reported at this speed; see README.md.
PROBE_REF_S = 0.002
TIME_LIMIT_S = 170.0  # a run must end within 180 s; later jobs are failed
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gwp1; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class BenchError(Exception):
    """The benchmark cannot run here (no gwp1 source, no reference)."""


def import_gwp1():
    """Import gwp1 from this checkout's src, and only from there."""
    if not (SRC / "gwp1" / "__init__.py").is_file():
        raise BenchError(f"no gwp1 source under {SRC}")
    sys.path.insert(0, str(SRC))
    import gwp1

    if Path(gwp1.__file__).resolve().parent != (SRC / "gwp1").resolve():
        raise BenchError(f"gwp1 imported from {gwp1.__file__}, not from {SRC}")
    return gwp1


# ---------------------------------------------------------------------------
# Job processes
# ---------------------------------------------------------------------------

def _child(jobs: list[tuple[int, str, list]], tracer: Tracer | None, wfd: int) -> None:
    """Body of a job process: run the jobs, stream one JSON line per job."""
    code = 0
    try:
        with os.fdopen(wfd, "w") as out:
            if tracer is not None:
                tracer.reset_cache_base()
            for job_id, kind, args in jobs:
                if tracer is not None:
                    tracer.job_id = job_id
                probe = speed_probe()
                t0 = time.perf_counter()
                try:
                    result = joblib.run_job(kind, args)
                    rec = {"id": job_id, "seconds": time.perf_counter() - t0,
                           "output": joblib.output_json(kind, result)}
                except Exception as exc:  # a raising job is a failed job
                    rec = {"id": job_id, "seconds": time.perf_counter() - t0,
                           "error": type(exc).__name__, "message": str(exc)[:200]}
                rec["probe_s"] = (probe + speed_probe()) / 2
                out.write(json.dumps(rec) + "\n")
                out.flush()
            if tracer is not None:
                out.write(json.dumps({"trace": tracer.snapshot()}) + "\n")
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def run_in_child(jobs, tracer, deadline):
    """Fork one job process for `jobs`; returns (records, trace snapshot, maxrss KiB).

    A job process still running at `deadline` is killed; its unfinished jobs
    get no record.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(jobs, tracer, wfd)
    os.close(wfd)
    buf = b""
    killed = False
    with os.fdopen(rfd, "rb") as rf:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rf], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = os.read(rf.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
    _, status, usage = os.wait4(pid, 0)
    records, snapshot = [], None
    for line in buf.decode().splitlines():
        if not line.endswith("}"):
            continue  # a line cut by the kill
        rec = json.loads(line)
        if "trace" in rec:
            snapshot = rec["trace"]
        else:
            records.append(rec)
    if killed:
        sys.stderr.write(f"job process {pid} killed at the time limit\n")
    return records, snapshot, usage.ru_maxrss


def run_list(workload, jobs, deadline, trace=False):
    """Run a job list; returns (untraced, traced) results, traced None unless
    `trace`.  A result holds per-job records, the merged trace, the wall time
    of its job processes and their peak RSS (MiB).

    With `trace`, cold jobs alternate untraced and traced job by job, so that
    drift in host speed hits both sides alike; the warm sweep runs its whole
    list untraced, then traced.
    """
    numbered = [(i, kind, args) for i, (kind, args) in enumerate(jobs)]
    cold = workload in joblib.COLD_WORKLOADS
    batches = [[j] for j in numbered] if cold else [numbered]
    tracer = Tracer() if trace else None
    sides = [{"records": {}, "snapshots": [], "wall_s": 0.0, "peak_kib": 0}
             for _ in range(2 if trace else 1)]
    if not trace:
        steps = [(sides[0], b, None) for b in batches]
    elif cold:
        steps = [step for b in batches for step in ((sides[0], b, None), (sides[1], b, tracer))]
    else:
        steps = [(sides[0], b, None) for b in batches] + [(sides[1], b, tracer) for b in batches]
    for side, batch, tr in steps:
        if time.monotonic() >= deadline:
            break
        if tr is not None:
            tr.install()
        try:
            t0 = time.perf_counter()
            recs, snap, maxrss = run_in_child(batch, tr, deadline)
            side["wall_s"] += time.perf_counter() - t0
        finally:
            if tr is not None:
                tr.uninstall()
        for rec in recs:
            side["records"][rec["id"]] = rec
        if snap is not None:
            side["snapshots"].append(snap)
        side["peak_kib"] = max(side["peak_kib"], maxrss)
    results = []
    for side in sides:
        for i, kind, args in numbered:
            side["records"].setdefault(i, {
                "id": i, "seconds": math.inf, "error": "NotFinished",
                "message": "job did not finish within the time limit"})
        results.append({"records": [side["records"][i] for i in range(len(jobs))],
                        "trace": merge(side["snapshots"]) if side["snapshots"] else None,
                        "wall_s": side["wall_s"], "peak_rss_mb": side["peak_kib"] / 1024})
    return results[0], (results[1] if trace else None)


# ---------------------------------------------------------------------------
# Checking and metrics
# ---------------------------------------------------------------------------

def check(jobs, records, reference):
    """Mark each record ok / failed; returns (failures, mismatches)."""
    failures, mismatches = [], []
    for (kind, args), rec in zip(jobs, records):
        if "error" in rec:
            rec["ok"] = False
            failures.append({"id": rec["id"], "job": [kind, args], "error": rec["error"],
                             "message": rec["message"]})
            continue
        ref = reference.get(joblib.reference_key(kind, args))
        rec["ok"] = ref is not None and joblib.output_matches(kind, args, rec["output"], ref)
        if not rec["ok"]:
            mismatches.append({"id": rec["id"], "job": [kind, args]})
    return failures, mismatches


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n jobs above it
    (0 when n is too small to have one)."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 0


def percentile(values, p: int) -> float:
    """Nearest-rank percentile; failed jobs enter as +inf."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s) / 100) - 1)]


def latency_metrics(records, at_reference_speed=True):
    """Median and tail job latency, and which percentile the tail is."""
    lat = [(ref_seconds(r["seconds"], r["probe_s"]) if at_reference_speed else r["seconds"])
           if r["ok"] else math.inf for r in records]
    p = tail_percentile(len(lat))
    return {
        "job_p50_s": percentile(lat, 50),
        "job_tail_s": percentile(lat, p) if p else max(lat),
    }, {"percentile": p, "jobs": len(lat), "beyond": len(lat) - math.ceil(p * len(lat) / 100)}


def speed_probe() -> float:
    """Seconds a fixed stdlib Fraction loop takes, best of three: the host's
    speed at this moment.  It does not touch gwp1, so no change to the
    program can move it."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def ref_seconds(seconds: float, probe_s: float) -> float:
    """A time measured between speed probes, rescaled to the reference host
    speed (the probe taking PROBE_REF_S)."""
    return seconds * PROBE_REF_S / probe_s


def wall_at_reference_speed(result) -> float:
    """The list's wall time, rescaled by the time-weighted speed factor of its
    jobs."""
    timed = [r for r in result["records"] if math.isfinite(r["seconds"])]
    raw = sum(r["seconds"] for r in timed)
    if not raw:
        return result["wall_s"]
    return result["wall_s"] * sum(ref_seconds(r["seconds"], r["probe_s"]) for r in timed) / raw


def measure_setup(starts: int = SETUP_STARTS) -> tuple[float, float]:
    """Median time for a fresh interpreter to import gwp1 and report ready, at
    reference host speed and as measured."""
    times, scaled = [], []
    for _ in range(starts):
        probe = speed_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT)
        line = b""
        try:
            if select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                scaled.append(ref_seconds(times[-1], probe))
        finally:
            proc.stdout.close()
            if not line:
                proc.kill()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("setup probe failed to import gwp1")
    return statistics.median(scaled), statistics.median(times)


def layer_metrics(traced, plain, records) -> dict:
    """Per-layer metrics of a traced run (names as in BENCHMARK.json)."""
    tr = traced["trace"]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (key, _parent), (c, s) in tr["stats"].items():
        calls[key] = calls.get(key, 0) + c
        self_s[key] = self_s.get(key, 0.0) + s
        layer = key.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + s

    def ratio(key):
        if key not in tr["cache"]:
            return None  # no longer an lru_cache: reported as absent
        hits, misses = tr["cache"][key]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {}
    for key in ("epslaurent.mul", "epslaurent.add", "epslaurent.div_exact",
                "zseries.mul", "zseries.shift", "zseries.invert", "zseries.exp",
                "multiseries.mul", "multiseries.divide_by_difference",
                "waves.solve_formal_wave", "waves.wave_shift",
                "invariants.n_point_invariant", "zmodel.zmodel_expansion",
                "miwa.symmetric_to_miwa", "charlier.bessel_j", "charlier.charlier_poly"):
        m[f"{key}.calls"] = (calls.get(key, 0), "count")
    for layer in ("epslaurent", "zseries", "multiseries", "waves", "invariants",
                  "zmodel", "miwa", "charlier"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["charlier.bessel_j.self_s"] = (self_s.get("charlier.bessel_j", 0.0), "s")
    m["charlier.charlier_poly.self_s"] = (self_s.get("charlier.charlier_poly", 0.0), "s")
    m["zseries.window_errors"] = (
        sum(1 for r in records if r.get("error") == "WindowError"), "count")
    m["multiseries.mul.terms_out"] = (tr["terms_out"], "count")
    m["multiseries.max_terms"] = (tr["max_terms"], "count")
    m["waves.max_order"] = (tr["max_order"], "order")
    for key in ("waves.solve_formal_wave", "waves.normalized_quartet", "zmodel.zmodel_entry"):
        r = ratio(key)
        if r is not None:
            m[f"{key}.hit_ratio"] = (r, "ratio")
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return m


def host_facts(workload: str, seed: int) -> dict:
    import mpmath.libmp

    digest = hashlib.sha256()
    for path in sorted((SRC / "gwp1").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    try:
        import_gwp1()
        reference = json.loads(REFERENCE.read_text())
    except (BenchError, OSError, ImportError, ValueError) as exc:
        sys.stderr.write(f"bench: cannot run: {exc}\n")
        return 2
    jobs = joblib.job_list(args.workload, args.seed, args.seconds)

    if args.trace:
        plain, traced = run_list(args.workload, jobs, deadline, trace=True)
        failures, mismatches = check(jobs, traced["records"], reference)
        # tracing must not change any output
        for a, b in zip(plain["records"], traced["records"]):
            if a.get("output") != b.get("output") or a.get("error") != b.get("error"):
                mismatches.append({"id": a["id"], "job": list(jobs[a["id"]]),
                                   "traced_output_differs": True})
        records = traced["records"]
        metrics = layer_metrics(traced, plain, records)
        tr = traced["trace"]
        details = {
            "spans_fields": ["job", "name", "start", "end", "parent"],
            "spans": tr["spans"],
            "calls_by_parent_layer": [[k, p, c, s] for (k, p), (c, s) in sorted(tr["stats"].items())],
            "cache": tr["cache"],
        }
    else:
        setup_s, raw_setup_s = measure_setup()
        plain, _ = run_list(args.workload, jobs, deadline)
        records = plain["records"]
        failures, mismatches = check(jobs, records, reference)
        lat, tail_info = latency_metrics(records)
        raw_lat, _ = latency_metrics(records, at_reference_speed=False)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_at_reference_speed(plain), "s"),
            "job_p50_s": (lat["job_p50_s"], "s"),
            "job_tail_s": (lat["job_tail_s"], "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MiB"),
        }
        probes = [r["probe_s"] for r in records if "probe_s" in r]
        details = {"as_measured": {"setup_s": raw_setup_s, "wall_s": plain["wall_s"], **raw_lat},
                   "speed_probe_s": statistics.median(probes) if probes else None}

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    report = {
        "host": host_facts(args.workload, args.seed),
        "jobs": attempted,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures,
        "mismatches": mismatches,
    }
    if not args.trace:
        report["job_tail"] = tail_info
        report["as_measured"] = details["as_measured"]
        report["speed_probe_s"] = details["speed_probe_s"]
    details["jobs"] = [{"id": r["id"], "job": list(job), "seconds": r["seconds"], "ok": r["ok"],
                        "error": r.get("error")} for job, r in zip(jobs, records)]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
