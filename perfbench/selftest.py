#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny case set (B3, D4).

    python3 perfbench/selftest.py

Checks that an untraced run reports every end-to-end metric of
BENCHMARK.json with its declared unit and prints every metric the report
lines promise; that a traced run reports every per-layer metric with its
unit; and that one deliberately wrong reference entry is counted as a wrong
verdict and turns `correct` false, so the correctness check can fail.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import sys

import run

TINY = [("B3", "all", False), ("D4", "all", False)]
PRINTED = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
           ("setup_s", "s"), ("case_s.p50", "s"), ("case_s.max", "s"),
           ("wrong_verdict_frac", "frac"), ("undecided_frac", "frac"),
           ("failed_frac", "frac")]


def check_metrics(result: dict, declared: list, what: str) -> list[str]:
    errors = []
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"{what}: metrics {sorted(set(got) ^ set(want))} "
                      f"differ from BENCHMARK.json")
    for name, unit in want.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit:
            errors.append(f"{what}: {name} has unit {entry.get('unit')!r}, "
                          f"declared {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{what}: {name} has no numeric value")
    if json.loads(json.dumps(result)) != result:
        errors.append(f"{what}: result does not round-trip through JSON")
    return errors


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []

    plain, lines = run.measure(TINY, 1, 1, False, label="selftest")
    errors += check_metrics(plain, bench["end_to_end"], "untraced run")
    if not (plain["correct"] and plain["failed"] == 0):
        errors.append("untraced run: B3/D4 should be correct with no failure")
    text = "\n".join(lines)
    for name, unit in PRINTED:
        if not re.search(rf"^\s*{re.escape(name)} = [-0-9.e]+ {unit}\b", text,
                         re.M):
            errors.append(f"untraced run: {name} is not printed in {unit}")

    traced, _ = run.measure(TINY, 1, 1, True, label="selftest")
    errors += check_metrics(traced, bench["per_layer"], "traced run")

    bad = dict(run.REFERENCE)
    bad["B3"] = {**bad["B3"], "p_minus_1": bad["B3"]["p_minus_1"] + 1}
    wrong, lines = run.measure(TINY, 1, 1, False, reference=bad,
                               label="selftest")
    right = wrong["metrics"]["right_verdict_frac"]["value"]
    if wrong["correct"] or right >= 1:
        errors.append("wrong reference entry not detected: correct="
                      f"{wrong['correct']}, right_verdict_frac={right}")
    if not re.search(r"wrong_verdict_frac = 0\.0*[1-9]", "\n".join(lines)):
        errors.append("wrong reference entry not counted in "
                      "wrong_verdict_frac")

    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
