"""Batch verification CLI.

Exit codes: 0 all checks pass, 1 any check fails (a broken input, one
that breaks a property the construction relies on, is a FAIL too), 3
usage errors (including excluded or unknown case ids, and a --checks
value that names an unknown group or no group at all).  Any other
exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .cases import CaseExcludedError
from .rootsys import _RANK_RANGES
from .verify import (
    CHECK_GROUPS,
    active_entry,
    emit,
    exit_code,
    list_cases,
    run,
    select_groups,
)


def build_parser() -> argparse.ArgumentParser:
    b_top, d_top = (_RANK_RANGES[s][1] for s in "BD")
    p = argparse.ArgumentParser(
        prog="verify",
        description="Verify the structural facts of the subadjoint-variety "
                    "graded Lie algebras, case by case, in exact arithmetic.",
    )
    p.add_argument("--case", default="all",
                   help=f"case id (B3..B{b_top}, D4..D{d_top}, F4, E6, "
                        "E7, E8), a comma-separated list, or 'all' (B and D "
                        "up to rank 8)")
    p.add_argument("--checks", default="all",
                   help=f"comma list from {', '.join(CHECK_GROUPS)} and "
                        "'all', which selects every group")
    p.add_argument("--heavy", action="store_true",
                   help="ignored: it changes no check and no report byte; "
                        "accepted until the benchmark stops passing it")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the xvv-kernel sampled cross-check; no status "
                        "reads it")
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
        # argparse exits 2 on a usage error; usage errors here exit 3
        return 3 if e.code else 0
    if args.list:
        for c in list_cases():
            tag = "EXCLUDED" if c.excluded else "active"
            print(f"{c.case_id:<4} {tag:<9} dimV={c.dim_V:<3} "
                  f"l1={c.dim_l1:<3} l={c.dim_l:<4} {c.note}")
        return 0

    if args.case == "all":
        case_ids = [c.case_id for c in list_cases()
                    if not c.excluded]
    else:
        # each id once, in first-seen order
        case_ids = list(dict.fromkeys(
            c.strip() for c in args.case.split(",") if c.strip()))
        if not case_ids:
            # an empty report would pass with nothing verified
            print(f"error: no case id in --case {args.case!r}", file=sys.stderr)
            return 3

    try:
        checks = select_groups(args.checks.split(","))
    except ValueError as e:
        print(f"error: --checks {args.checks!r}: {e}", file=sys.stderr)
        return 3

    if args.out:
        # fail before the run when the path cannot be opened; the open after
        # the run still reports a path that changed in between
        if os.path.isdir(args.out):
            return _unwritable(args.out, os.strerror(errno.EISDIR))
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            return _unwritable(args.out, os.strerror(errno.ENOENT))

    # every id is resolved before the first case runs, so that an unknown
    # or excluded id stops the command at once, and a KeyError out of a
    # check stays a bug
    try:
        for cid in case_ids:
            active_entry(cid)
    except (KeyError, CaseExcludedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    reports = [run(cid, checks, args.seed) for cid in case_ids]
    doc = emit(reports, fmt=args.fmt, timings=args.timings)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(doc)
        except OSError as e:
            return _unwritable(args.out, e.strerror)
    else:
        sys.stdout.write(doc)
    return exit_code(reports)


def _unwritable(path: str, why: str) -> int:
    print(f"error: cannot write --out {path!r}: {why}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
