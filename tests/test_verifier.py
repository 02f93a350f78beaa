import json

import pytest

from subadjoint import verify
from subadjoint.cases import CaseExcludedError
from subadjoint.cli import main
from subadjoint.verify import (
    CheckRecord,
    RunOptions,
    VerificationReport,
    emit,
    exit_code,
    list_cases,
    run,
)


def test_registry_default_counts():
    cases = list_cases()
    active = [c for c in cases if not c.excluded]
    # 6 B-ranks + 5 D-ranks + 4 exceptional
    assert len(active) == 6 + 5 + 4
    excluded = [c for c in cases if c.excluded]
    assert [c.case_id for c in excluded] == ["G2"]
    assert "twisted cubic" in excluded[0].note


def test_registry_rank_ceiling_filter():
    active = [c.case_id for c in list_cases(4) if not c.excluded]
    assert active == ["B3", "B4", "D4", "F4", "E6", "E7", "E8"]


def test_registry_dims_internally_consistent():
    for c in list_cases():
        if c.excluded:
            continue
        assert c.dim_V == 2 * c.dim_l1 + 2
        assert sum(c.g_dims) == 1 + c.dim_l + c.dim_V


def test_run_excluded_case_raises():
    with pytest.raises(CaseExcludedError):
        run("G2", {"jacobi"})


def test_run_unknown_check_rejected():
    with pytest.raises(ValueError):
        run("B3", {"bogus"})


def test_empty_check_set_is_vacuous():
    rep = run("B3", set())
    assert rep.vacuous
    assert rep.checks == []
    assert rep.status == "PASS"
    assert exit_code(rep) == 0


def test_b3_full_run_passes():
    rep = run("B3", {"all"}, RunOptions(seed=7))
    assert rep.status == "PASS"
    ids = [c.check_id for c in rep.checks]
    for expected in ("case-dims", "contact-grading", "jacobi-ambient",
                     "sigma-form", "xvv-kernel", "prolong-dims",
                     "restricted-differentials", "cI-six-families"):
        assert expected in ids
    assert exit_code(rep) == 0


def test_report_status_ordering():
    mk = lambda status: CheckRecord(check_id="x", status=status)
    rep = VerificationReport("B3", "0", [mk("PASS"), mk("FAIL"),
                                         mk("INCONCLUSIVE")], {}, {})
    assert rep.status == "FAIL"          # INCONCLUSIVE never masks FAIL
    assert exit_code(rep) == 1
    rep = VerificationReport("B3", "0", [mk("PASS"), mk("SKIPPED")], {}, {})
    assert rep.status == "DEGRADED"
    assert exit_code(rep) == 2
    rep = VerificationReport("B3", "0", [mk("PASS")], {}, {})
    assert exit_code(rep) == 0


def test_json_roundtrip():
    rep = run("B3", {"weights"}, RunOptions(seed=7))
    doc = emit(rep, fmt="json")
    parsed = json.loads(doc)
    assert parsed["case"] == "B3"
    assert parsed["status"] == rep.status
    assert parsed["environment"]["seed"] == 7
    byid = {c["id"]: c for c in parsed["checks"]}
    assert byid["cI-embedding-weight"]["values"]["cI_omega_star"] == "3/2"
    assert all(c["millis"] == 0 for c in parsed["checks"])


def test_emit_deterministic_in_process():
    a = emit(run("D4", {"weights"}, RunOptions(seed=7)), fmt="json")
    b = emit(run("D4", {"weights"}, RunOptions(seed=7)), fmt="json")
    assert a == b


def test_e_series_defaults_skip_solvers():
    rep = run("E6", {"prolong", "spencer"}, RunOptions(seed=1))
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["prolong-dims"] == "SKIPPED"
    assert statuses["spencer-checks"] == "SKIPPED"
    assert rep.status == "DEGRADED"
    assert exit_code(rep) == 2


def test_corrupted_witness_fails_prolong_checks(monkeypatch):
    real = verify.ad_witnesses

    def corrupted(*args):
        wits = real(*args)
        block = next(b for b in wits[0] if b)
        block[next(iter(block))] += 1
        return wits

    monkeypatch.setattr(verify, "ad_witnesses", corrupted)
    rep = run("B3", {"prolong"}, RunOptions(seed=7))
    recs = {c.check_id: c for c in rep.checks}
    assert recs["prolong-dims"].status == "FAIL"
    assert "witness" in recs["prolong-dims"].values["error"]
    assert recs["prolong-ad-witnesses"].status == "FAIL"
    assert not recs["prolong-ad-witnesses"].values[
        "witnesses_satisfy_compatibility"]
    assert exit_code(rep) == 1


def _corrupt_build_g(monkeypatch, corrupt):
    real = verify.build_g

    def corrupted(case):
        g = real(case)
        corrupt(g)
        return g

    monkeypatch.setattr(verify, "build_g", corrupted)


def test_corrupted_bracket_fails_spencer_qdim(monkeypatch):
    def double_g1_g1(g):
        key = next(k for k in sorted(g.table.brackets)
                   if g.degree[k[0]] == g.degree[k[1]] == 1)
        vec = g.table.brackets[key]
        vec[next(iter(vec))] *= 2

    _corrupt_build_g(monkeypatch, double_g1_g1)
    rep = run("B3", {"spencer"}, RunOptions(seed=7))
    rec = next(c for c in rep.checks if c.check_id == "spencer-qdim")
    # ad g_{-1} is no longer a cocycle, so del becomes injective on C^{-1,1}
    assert rec.values["ranks"][-1] == rec.values["dim_C1"][-1] == 26
    assert rec.status == "FAIL"


def test_lost_v3_fails_six_families(monkeypatch):
    def drop_v3(g):
        g.V_level_indices = {**g.V_level_indices, 3: ()}

    _corrupt_build_g(monkeypatch, drop_v3)
    rep = run("B3", {"weights"}, RunOptions(seed=7))
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["cI-six-families"] == "FAIL"


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "G2" in out and "EXCLUDED" in out


def test_cli_excluded_case_usage_error(capsys):
    assert main(["--case", "G2"]) == 3


def test_cli_unknown_check_usage_error(capsys):
    assert main(["--case", "B3", "--checks", "nope"]) == 3


def test_cli_argparse_errors_are_usage_errors(capsys):
    # argparse alone would exit 2, the DEGRADED code
    assert main(["--mode", "exact"]) == 3
    assert main(["--seed", "x"]) == 3
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "--mode" not in capsys.readouterr().out


def test_cli_single_case_json(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["--case", "B3", "--checks", "weights", "--seed", "7",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["case"] == "B3"
