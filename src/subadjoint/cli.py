"""Batch verification CLI.

Exit codes: 0 all checks pass, 1 any check fails, 2 only
INCONCLUSIVE/SKIPPED degradations, 3 usage errors (including excluded or
unknown case ids).
"""

from __future__ import annotations

import argparse
import sys

from .cases import CaseExcludedError
from .verify import (
    CHECK_GROUPS,
    RunOptions,
    emit,
    exit_code,
    list_cases,
    run,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="verify",
        description="Verify the structural facts of the subadjoint-variety "
                    "graded Lie algebras, case by case, in exact arithmetic.",
    )
    p.add_argument("--case", default="all",
                   help="case id (B3..B8, D4..D8, F4, E6, E7, E8), a "
                        "comma-separated list, or 'all'")
    p.add_argument("--checks", default="all",
                   help=f"comma list from {', '.join(CHECK_GROUPS)}, or 'all', "
                        f"or 'none' for an empty (vacuous) report")
    p.add_argument("--heavy", action="store_true",
                   help="no effect: every solver runs by default; accepted "
                        "so existing command lines keep working")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampling and random trials")
    p.add_argument("--samples", type=int, default=10,
                   help="orbit sample budget per irreducible summand (base-locus "
                        "sampling takes at least the summand's dimension)")
    p.add_argument("--rank-ceiling", type=int, default=8,
                   help="largest B/D rank in the registry")
    p.add_argument("--kmin", type=int, default=-7,
                   help="lowest cochain degree for the weight tables")
    p.add_argument("--format", dest="fmt", default="text",
                   choices=("text", "json"))
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock millis in JSON output "
                        "(breaks byte-determinism)")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--list", action="store_true",
                   help="list registry cases and exit")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which here means DEGRADED
        return 3 if e.code else 0
    options = RunOptions(
        seed=args.seed, samples=args.samples,
        kmin=args.kmin, heavy=args.heavy, timings=args.timings,
        rank_ceiling=args.rank_ceiling,
    )

    if args.list:
        for c in list_cases(args.rank_ceiling):
            tag = "EXCLUDED" if c.excluded else "active"
            print(f"{c.case_id:<4} {tag:<9} dimV={c.dim_V:<3} "
                  f"l1={c.dim_l1:<3} l={c.dim_l:<4} {c.note}")
        return 0

    if args.case == "all":
        case_ids = [c.case_id for c in list_cases(args.rank_ceiling)
                    if not c.excluded]
    else:
        case_ids = [c.strip() for c in args.case.split(",") if c.strip()]

    if args.checks == "all":
        checks = set(CHECK_GROUPS)
    elif args.checks == "none":
        checks = set()
    else:
        checks = {c.strip() for c in args.checks.split(",") if c.strip()}
        bad = checks - set(CHECK_GROUPS)
        if bad:
            print(f"error: unknown checks {sorted(bad)}", file=sys.stderr)
            return 3

    reports = []
    for cid in case_ids:
        try:
            reports.append(run(cid, checks, options))
        except CaseExcludedError as e:
            print(f"error: {e}", file=sys.stderr)
            return 3
        except KeyError as e:
            print(f"error: {e}", file=sys.stderr)
            return 3

    doc = emit(reports, fmt=args.fmt, timings=args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
