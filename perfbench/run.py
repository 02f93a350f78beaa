#!/usr/bin/env python3
"""Benchmark of the `verify` batch verifier, end to end and per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's `src/`, nothing is installed.  Each workload is a fixed list of
`verify ... --seed S --format json` invocations.  One pass runs the list
once, each invocation as its own child process; passes repeat while the
next one fits in `--seconds` (at least one runs).  Every report is compared
with the hand-written reference answers in reference.py.

`--trace 0` times the children from outside with tracing off and reports the
end-to-end metrics.  `--trace 1` alternates untraced passes with passes
whose children run the invocation under tracer.py, writes the spans as JSON
lines under `.bench_build/perfbench/`, prints the self-time table and
reports the per-layer metrics with `trace_overhead_frac`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it restate every
metric with its unit and stamp the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from reference import REFERENCE, score_report  # noqa: E402

# Workloads: (case, check groups, --heavy).  Each list is cut so that at
# least two passes fit a 36 s run on a 2-core machine: the speed of a shared
# host drifts from one half-minute to the next, and a median over passes is
# steadier than one long pass.
SWEEP_CASES = ("B3", "B4", "B5", "D4", "D5", "D6", "F4", "E6")
WORKLOADS = {
    # the default user command, `--checks all` per case: construction, the
    # Jacobi scans, the weight tables, forms/xvv sampling and small exact
    # solves, with E6's two SKIPPED solvers.  E7 runs its forms group only:
    # that keeps the base-locus-samples FAIL of the default sample budget
    # (l_1 ideal of dimension 15 > 10 samples) in the run without the 13 s
    # of E7's full check list
    "sweep": [(c, "all", False) for c in SWEEP_CASES] + [("E7", "forms", False)],
    # prolongation row generation and the mod-p path with early exit
    "prolong-heavy": [("E6", "prolong", True), ("E7", "prolong", True)],
    # materialised Spencer differential, full-rank elimination over two
    # primes and the exact restricted-differential ranks; no early exit
    "spencer-heavy": [("E6", "spencer", True), ("D7", "spencer", True)],
}

# BLAS threads of every child.  Default threading on a small shared machine
# makes wall and CPU time of the mod-p eliminations wander between runs, so
# the benchmark pins it; compare commits only at the same setting.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
HARD_LIMIT_S = 170.0          # the whole run, children included


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    return env


def run_child(cmd: list[str], deadline: float) -> dict:
    """Run one child to completion (killed at `deadline`); time it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"wall": wall, "cpu": cpu, "code": proc.returncode, "out": out,
            "err": err.decode(errors="replace"), "killed": killed}


def verify_args(case: str, checks: str, heavy: bool, seed: int) -> list[str]:
    return (["--case", case, "--checks", checks] + (["--heavy"] if heavy else [])
            + ["--seed", str(seed), "--format", "json"])


def run_pass(invocations, seed: int, deadline: float, traced: bool,
             tag: str) -> dict:
    """One pass over the workload; traced passes also collect spans."""
    results = []
    for case, checks, heavy in invocations:
        args = verify_args(case, checks, heavy, seed)
        if traced:
            spans = OUT / f"{tag}-{case}-{checks}.jsonl"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans)] + args
        else:
            cmd = [sys.executable, "-m", "subadjoint"] + args
        res = run_child(cmd, deadline)
        res["key"] = (case, checks, heavy)
        if traced:
            res["spans"] = read_spans(spans) if spans.exists() else None
        results.append(res)
        if res["killed"]:
            break
    return {"traced": traced, "results": results}


def read_spans(path: Path) -> dict:
    spans, solves = [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "modp_solves" in rec:
                solves = rec["modp_solves"]
            else:
                spans.append(rec)
    return {"spans": spans, "modp_solves": solves}


def time_setup(deadline: float) -> list[float]:
    """Wall time of `python -c "import subadjoint"`, SETUP_REPS times."""
    times = []
    for _ in range(SETUP_REPS):
        res = run_child([sys.executable, "-c", "import subadjoint"], deadline)
        if res["code"] != 0:
            raise RuntimeError("`import subadjoint` from src/ failed: "
                               + res["err"].strip()[-300:])
        times.append(res["wall"])
    return times


# --------------------------------------------------------------------------
# correctness and failure accounting
# --------------------------------------------------------------------------

def judge(passes, reference) -> dict:
    """Verdict scores and failed invocations over every pass.

    An invocation failed when it crashed, was killed, exited with a code
    other than 0/1/2 (1 and 2 are verdicts: FAIL, DEGRADED), printed no
    parsable JSON, or printed JSON bytes that differ from the first
    repetition of the same invocation in this run.
    """
    first_bytes: dict = {}
    attempted = failed = checks = wrong = undecided = 0
    mismatches, failures = [], []
    for p in passes:
        for res in p["results"]:
            attempted += 1
            reason = None
            if res["killed"]:
                reason = "killed at the time limit"
            elif res["code"] not in (0, 1, 2):
                reason = f"exit code {res['code']}"
            else:
                try:
                    doc = json.loads(res["out"])
                except ValueError:
                    reason = "unparsable JSON"
            if reason is None:
                prev = first_bytes.setdefault(res["key"], res["out"])
                if prev != res["out"]:
                    reason = "JSON differs between repetitions"
            if reason:
                failed += 1
                failures.append((res["key"], reason, res["err"][-400:]))
                continue
            for report in doc if isinstance(doc, list) else [doc]:
                s = score_report(report, reference)
                checks += s["checks"]
                wrong += s["wrong"]
                undecided += s["undecided"]
                mismatches += s["mismatches"]
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "wrong": wrong, "undecided": undecided, "mismatches": mismatches,
            "failures": failures}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(passes, setup, verdicts) -> tuple[dict, list[str]]:
    plain = [p for p in passes if not p["traced"]]
    walls = [sum(r["wall"] for r in p["results"]) for p in plain]
    cpus = [sum(r["cpu"] for r in p["results"]) for p in plain]
    per_inv: dict = {}
    for p in plain:
        for r in p["results"]:
            per_inv.setdefault(r["key"], []).append(r["wall"])
    case_s = [statistics.median(v) for v in per_inv.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    n_checks = max(verdicts["checks"], 1)
    wrong_frac = verdicts["wrong"] / n_checks
    undecided_frac = verdicts["undecided"] / n_checks
    # Result metrics never read 0: the verdict fractions go in as their
    # complements.  The per-invocation times (case_s.*) are printed only;
    # single invocations of about a second swing by ~20% between runs on a
    # shared 2-core host, too much for a bound.
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "right_verdict_frac": (1 - wrong_frac, "frac"),
        "decided_frac": (1 - undecided_frac, "frac"),
    }
    lines = [
        f"  wall_s = {metrics['wall_s'][0]:.4f} s  (median of {len(walls)} "
        f"passes, summed child wall time)",
        f"  cpu_s = {metrics['cpu_s'][0]:.4f} s  (median of {len(cpus)} "
        f"passes, child user+sys)",
        f"  peak_rss_mb = {rss_mb:.1f} MB  (largest child)",
        f"  setup_s = {metrics['setup_s'][0]:.4f} s  (median of "
        f"{len(setup)} imports)",
        f"  case_s.p50 = {statistics.median(case_s):.4f} s  (n={len(case_s)} "
        f"invocations, each the median of its passes; printed only)",
        f"  case_s.max = {max(case_s):.4f} s  (n={len(case_s)}; printed only)",
        f"  wrong_verdict_frac = {wrong_frac:.6f} frac  ({verdicts['wrong']}"
        f"/{verdicts['checks']} checks)",
        f"  undecided_frac = {undecided_frac:.6f} frac  "
        f"({verdicts['undecided']}/{verdicts['checks']} checks)",
        f"  failed_frac = {verdicts['failed'] / max(verdicts['attempted'], 1):.6f}"
        f" frac  ({verdicts['failed']}/{verdicts['attempted']} invocations)",
        f"  right_verdict_frac = {1 - wrong_frac:.6f} frac  "
        f"(1 - wrong_verdict_frac)",
        f"  decided_frac = {1 - undecided_frac:.6f} frac  (1 - undecided_frac)",
    ]
    return metrics, lines


# spans whose total (union) time is a per-layer metric `<name>_s`
TOTAL_TIMES = [
    "rootsys.build_root_system", "rootsys.chevalley_table", "galg.build_g",
    "liecore.check_jacobi", "liecore.contact_grading", "galg.g_jacobi",
    "galg.identities", "spencer.summand_cI_table",
    "spencer.conjugation_expansion", "cases.sample_closed_orbit",
    "cases.check_xvv", "cases.fundamental_forms", "linalg.modp_convert",
    "linalg.modp", "spencer.differential", "linalg.exact",
    "spencer.spencer_spaces",
]
# spans whose self time is a per-layer metric `<name>_self_s`
SELF_TIMES = [
    "cases.build_case", "prolong.prolongation", "spencer.q_dimension",
    "spencer.partial_prime_checks", "verify.run",
]
COUNTS = {  # metric -> (span name, "calls" or "count")
    "rootsys.table_brackets": ("rootsys.chevalley_table", "count"),
    "prolong.levels_stopped_early": ("prolong.prolongation", "count"),
    "linalg.rows_fed": ("linalg.modp", "count"),
    "spencer.spencer_spaces_calls": ("spencer.spencer_spaces", "calls"),
}


def span_table(invocation_spans) -> dict:
    """name -> {calls, count, total, self} over one pass, in seconds.

    Total is the time under the name's outermost spans (a nested span of the
    same name is not counted twice); self subtracts the direct children.
    """
    table: dict = {}
    for spans in invocation_spans:
        by_id = {s["id"]: s for s in spans}
        child_time: dict = {}
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0)
                                           + s["end"] - s["start"])
        for s in spans:
            row = table.setdefault(s["name"], {"calls": 0, "count": 0,
                                               "total": 0.0, "self": 0.0})
            dur = (s["end"] - s["start"]) / 1e9
            row["calls"] += 1
            row["count"] += s["count"] or 0
            row["self"] += dur - child_time.get(s["id"], 0) / 1e9
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != s["name"]:
                parent = by_id.get(parent["parent"])
            if parent is None:
                row["total"] += dur
    return table


def layer_values(traced_pass) -> tuple[dict, dict]:
    runs = [r["spans"] for r in traced_pass["results"] if r.get("spans")]
    table = span_table(run["spans"] for run in runs)
    values = {f"{n}_s": table.get(n, {}).get("total", 0.0) for n in TOTAL_TIMES}
    values.update({f"{n}_self_s": table.get(n, {}).get("self", 0.0)
                   for n in SELF_TIMES})
    values.update({m: table.get(n, {}).get(field, 0)
                   for m, (n, field) in COUNTS.items()})
    solves = [s for run in runs for s in run["modp_solves"]]
    rows_fed = values["linalg.rows_fed"]
    values["linalg.useful_row_frac"] = (
        sum(rank for _, rank in solves) / rows_fed if rows_fed else 0.0)
    values["linalg.solves"] = len(solves)
    values["linalg.max_solve_cols"] = max((c for c, _ in solves), default=0)
    return values, table


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "frac" if metric.endswith("_frac") else "count"


def per_layer(passes) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [layer_values(p) for p in traced]
    names = list(per_pass[0][0])
    metrics = {m: (statistics.median(v[m] for v, _ in per_pass),
                   layer_unit(m)) for m in names}
    traced_wall = statistics.median(sum(r["wall"] for r in p["results"])
                                    for p in traced)
    plain_wall = statistics.median(sum(r["wall"] for r in p["results"])
                                   for p in plain)
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1, "frac")
    table = per_pass[0][1]
    lines = [f"  self-time table (traced pass 1 of {len(traced)}):",
             f"    {'span':<34} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(f"    {name:<34} {row['calls']:>7} {row['total']:>10.4f} "
                     f"{row['self']:>10.4f}")
    lines.append(f"  per-layer metrics (median of {len(traced)} traced passes):")
    for m, (v, unit) in metrics.items():
        lines.append(f"    {m} = {v:.6g} {unit}")
    lines.append(f"  trace_overhead_frac: traced {traced_wall:.4f} s against "
                 f"untraced wall_s {plain_wall:.4f} s")
    return metrics, lines


# --------------------------------------------------------------------------
# environment stamp
# --------------------------------------------------------------------------

def environment() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version,
            "blas_threads": f"{BLAS_THREADS} (pinned via {', '.join(BLAS_VARS)})",
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def measure(invocations, seed: int, seconds: float, trace: bool,
            reference: dict = REFERENCE, label: str = "run") -> tuple[dict, list]:
    """Run one benchmark run; return the result object and report lines."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    setup = time_setup(deadline)
    window_end = time.monotonic() + seconds
    passes = []
    durations = []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(invocations, seed, deadline, False, ""))
        if trace:
            tag = f"{label}-seed{seed}-pass{len(passes)}"
            passes.append(run_pass(invocations, seed, deadline, True, tag))
        durations.append(time.monotonic() - t0)
        if any(r["killed"] for p in passes[-2:] for r in p["results"]):
            break
        if time.monotonic() + statistics.mean(durations) > window_end:
            break
    verdicts = judge(passes, reference)
    lines = [f"perfbench {label} seed={seed} trace={int(trace)} "
             f"passes={len(passes)} invocations/pass={len(invocations)} "
             f"elapsed={time.monotonic() - start:.1f}s",
             "env " + json.dumps(environment(), sort_keys=True)]
    if trace:
        metrics, more = per_layer(passes)
    else:
        metrics, more = end_to_end(passes, setup, verdicts)
    lines += more
    for key, reason, err in verdicts["failures"]:
        lines.append(f"  FAILED {key}: {reason} {err.strip()[-200:]!r}")
    for mm in verdicts["mismatches"]:
        lines.append(f"  MISMATCH case={mm[0]} check={mm[1]} {mm[2]}: "
                     f"got {mm[3]!r}, reference {mm[4]!r}")
    result = {
        "correct": verdicts["failed"] == 0 and not verdicts["mismatches"],
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "subadjoint" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'subadjoint'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace),
                                label=args.workload)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
