"""Acceptance suite: one test per exit criterion, one printed line each.

Everything is exact arithmetic; the only tolerances are the stated wall
clock budgets.  The E-series solver runs use the same exact elimination as
every other case, by default (--heavy has no effect).
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from subadjoint.cases import build_case, check_xvv
from subadjoint.galg import build_g
from subadjoint.prolong import g_tower, witness_rank
from subadjoint.rootsys import build_root_system, chevalley_table
from subadjoint.spencer import partial_prime_checks
from subadjoint.verify import list_cases, run

from oracles import (
    direct_sum_check,
    sl2_adjoint_check,
    sl2_line_input,
    truncation_matches_sl2,
)

ACTIVE = [c.case_id for c in list_cases() if not c.excluded]
EXACT_PROLONG = ["B3", "B4", "D4", "D5", "F4"]
E_SERIES = ["E6", "E7", "E8"]


def report_line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:>2} ({name}): {status} {extra}")
    assert ok, f"criterion {num} ({name}) failed {extra}"


@pytest.fixture(scope="module")
def sweep():
    """One full non-solver pipeline per active case, shared across criteria."""
    out = {}
    for cid in ACTIVE:
        out[cid] = run(cid, {"jacobi", "forms", "xvv", "gstructure",
                             "weights", "spencer"}, seed=7)
    return out


@pytest.fixture(scope="module")
def prolong_reports():
    out = {}
    for cid in EXACT_PROLONG:
        t0 = time.monotonic()
        rep = run(cid, {"prolong"}, seed=7)
        out[cid] = (rep, time.monotonic() - t0)
    for cid in E_SERIES:
        t0 = time.monotonic()
        rep = run(cid, {"prolong"}, seed=7)
        out[cid] = (rep, time.monotonic() - t0)
    return out


def _record(report, check_id):
    recs = {c.check_id: c for c in report.checks}
    return recs[check_id]


def test_criterion_01_chevalley_consistency(sweep):
    ok = True
    worst = 0
    for cid in ("B3", "B4", "D4", "D5", "F4"):
        rec = _record(sweep[cid], "jacobi-ambient")
        ok = ok and rec.status == "PASS" and rec.values["violations"] == 0
        ok = ok and rec.millis < 60_000
        worst = max(worst, rec.millis)
    report_line(1, "chevalley-jacobi", ok, f"(max {worst} ms)")


def test_criterion_02_contact_grading(sweep):
    ok = len(sweep) == len(ACTIVE)
    for cid in ACTIVE:
        rec = _record(sweep[cid], "contact-grading")
        dims = rec.dims["s_components"]
        ok = ok and rec.status == "PASS"
        ok = ok and dims[2] == dims[-2] == 1
    report_line(2, "contact-grading-extremes", ok,
                f"({len(ACTIVE)} cases)")


def test_criterion_03_prolongation_theorem(prolong_reports):
    expected = {c.case_id: c.dim_l1 for c in list_cases() if not c.excluded}
    ok = True
    details = []
    for cid, (rep, wall) in prolong_reports.items():
        rec = _record(rep, "prolong-dims")
        p1, p2 = rec.dims["p_minus_1"], rec.dims["p_minus_2"]
        ok = ok and rec.status == "PASS"
        ok = ok and p1 == expected[cid] and p2 == 0
        budget = 3600.0 if cid == "E8" else 300.0
        ok = ok and wall < budget
        details.append(f"{cid}:{p1}/{p2} {wall:.0f}s")
    report_line(3, "prolongation-dims", ok, "(" + ", ".join(details) + ")")


def test_criterion_04_injectivity_half(prolong_reports):
    ok = True
    for cid, (rep, _) in prolong_reports.items():
        rec = _record(rep, "prolong-ad-witnesses")
        ok = ok and rec.status == "PASS"
        ok = ok and rec.dims["witness_rank"] == rec.dims["dim_g_minus_1"]
        ok = ok and rec.values["witnesses_satisfy_compatibility"]
    report_line(4, "bracket-injects-into-first-prolongation", ok,
                f"({len(prolong_reports)} cases)")


def test_criterion_05_embedding_weight(sweep):
    ok = True
    worst = 0
    for cid in ACTIVE:
        rec = _record(sweep[cid], "cI-embedding-weight")
        ok = ok and rec.status == "PASS"
        ok = ok and rec.values["cI_omega_star"] == Fraction(3, 2)
        ok = ok and rec.millis < 1000
        worst = max(worst, rec.millis)
    report_line(5, "embedding-weight-3/2", ok, f"(max {worst} ms)")


def test_criterion_06_six_value_tables(sweep):
    ok = True
    for cid in ACTIVE:
        rec = _record(sweep[cid], "cI-six-families")
        ok = ok and rec.status == "PASS"
        per_k = rec.values["per_k"]
        ok = ok and sorted(per_k) == list(range(-7, 0))
    report_line(6, "six-family-cI-tables", ok, f"({len(ACTIVE)} cases, k in [-7,-1])")


def test_criterion_07_partial_differentials():
    ok = True
    details = []
    for cid in ACTIVE:
        case = build_case(cid)
        g = build_g(case)
        rep = partial_prime_checks(g, g_tower(g))
        d = len(g.V_level_indices[2])
        ok = ok and rep.rank_prime == comb(d, 2) == rep.dim_target_prime
        ok = ok and rep.nullity_doubleprime == 0
        ok = ok and rep.pairing_nondegenerate
        details.append(f"{cid}:{rep.rank_prime}")
    report_line(7, "restricted-differentials", ok,
                f"({len(ACTIVE)} cases)")


def test_criterion_08_third_form_and_pairing(sweep):
    ok = True
    for cid in ACTIVE:
        rec = _record(sweep[cid], "fundamental-forms")
        ok = ok and rec.status == "PASS"
        ok = ok and rec.dims["iii_kernel"] == 0
        ok = ok and rec.values["beta_det_nonzero"]
    report_line(8, "third-form-nondegeneracy-and-perfect-pairing", ok,
                f"({len(ACTIVE)} cases)")


def test_criterion_09_bracket_kernel_certificate(sweep):
    ok = True
    for cid in ("B3", "D4", "F4"):
        rec = _record(sweep[cid], "xvv-kernel")
        ok = ok and rec.status == "PASS"
        ok = ok and rec.dims["kernel"] == 0
        ok = ok and rec.values["budget_per_ideal"] == 10
    # no samples leave all of l_{-1} in the sampled kernel: the sampled
    # cross-check proves nothing then, and no status reads it
    case = build_case("B3")
    ok = ok and check_xvv(case, []) == len(case.lminus1_roots())
    report_line(9, "orbit-sample-kernel-certificate", ok)


def test_criterion_10_sl2_oracles():
    iso = truncation_matches_sl2(chevalley_table(build_root_system("A1")))
    adj = sl2_adjoint_check()
    sums = direct_sum_check(sl2_line_input(), sl2_line_input(), 4)
    ok = iso.status == "PASS"
    ok = ok and adj.status == "PASS"
    ok = ok and adj.lhs == {1: Fraction(-12)} and adj.rhs == {1: Fraction(12)}
    ok = ok and sums.ok and sums.dims_sum == {1: 2, 2: 2, 3: 2, 4: 2}
    report_line(10, "formal-vector-field-oracles", ok)


def test_criterion_11_identity_suite(sweep):
    wanted = (
        "identity-eII-coefficients",
        "identity-v1-annihilator-of-v2",
        "identity-l1-V1-intersection",
        "identity-v0-bracket-image",
        "identity-a-squared-zero",
        "est-expansion",
    )
    ok = True
    for cid in ACTIVE:
        recs = {c.check_id: c.status for c in sweep[cid].checks}
        for w in wanted:
            ok = ok and recs.get(w) == "PASS"
    report_line(11, "structure-identity-suite", ok,
                f"({len(wanted)} identities x {len(ACTIVE)} cases)")


def test_criterion_12_determinism():
    cmd = [sys.executable, "-m", "subadjoint", "--case", "all",
           "--checks", "weights", "--seed", "7", "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, check=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True, check=True)
    ok = r1.stdout == r2.stdout and len(r1.stdout) > 1000
    report_line(12, "byte-identical-reports", ok,
                f"({len(r1.stdout)} bytes)")


def test_criterion_13_default_run_has_no_fail(sweep):
    failing = [f"{cid}:{c.check_id}:{c.status}" for cid, rep in sweep.items()
               for c in rep.checks if c.status != "PASS"]
    report_line(13, "default-run-no-fail", not failing,
                f"({len(sweep)} cases, not PASS: {failing})")
