import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subadjoint import prolong, spencer, verify
from subadjoint.cases import CaseExcludedError, build_case
from subadjoint.cli import main
from subadjoint.galg import build_g
from subadjoint.prolong import ad_witnesses, input_from_g, prolongation
from subadjoint.verify import (
    CaseDescriptor,
    CheckRecord,
    RunOptions,
    VerificationReport,
    emit,
    exit_code,
    list_cases,
    registry_entry,
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


def _bad_registry_row():
    """A registry row with dim V = 13 != 2 dim l_1 + 2 = 12."""
    return CaseDescriptor(case_id="X", s_label="B3", dim_V=13, dim_l1=5,
                          dim_l=6, g_dims=(5, 3, 10, 5, 1), l_factors=(),
                          note="")


def test_bad_registry_row_raises():
    with pytest.raises(ValueError, match="dim V"):
        _bad_registry_row()


def test_bad_registry_row_raises_under_python_O():
    # the guard must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_verifier import _bad_registry_row",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        "    _bad_registry_row()",
        "except ValueError:",
        "    sys.exit(0)",
        "sys.exit('bad registry row accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_patched_registry_row_fails_g_dims(monkeypatch):
    # one dimension moved from g_0 to g_1 keeps the row's sum rule
    real = registry_entry("B3")
    d = real.g_dims
    row = dataclasses.replace(real, g_dims=(d[0], d[1] - 1, d[2] + 1, *d[3:]))
    monkeypatch.setattr(verify, "registry_entry", lambda *args: row)
    rep = run("B3", {"gstructure"}, RunOptions(seed=7))
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["g-dims"] == "FAIL"


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


def test_e_series_runs_solvers_by_default():
    rep = run("E6", {"prolong", "spencer"}, RunOptions(seed=1))
    statuses = {c.check_id: c.status for c in rep.checks}
    assert set(statuses) >= {"prolong-dims", "prolong-ad-witnesses",
                             "spencer-cocycle-ad", "restricted-differentials",
                             "spencer-qdim"}
    assert set(statuses.values()) == {"PASS"}
    assert exit_code(rep) == 0
    # --heavy changes nothing but the environment stamp
    heavy = run("E6", {"prolong", "spencer"}, RunOptions(seed=1, heavy=True))
    a, b = json.loads(emit(rep, fmt="json")), json.loads(emit(heavy, fmt="json"))
    assert (a["environment"].pop("heavy"), b["environment"].pop("heavy")) \
        == (False, True)
    assert a == b


def test_corrupted_witness_fails_prolong_checks(monkeypatch):
    real = prolong.ad_witnesses

    def corrupted(*args):
        wits = real(*args)
        block = next(b for b in wits[0] if b)
        block[next(iter(block))] += 1
        return wits

    monkeypatch.setattr(prolong, "ad_witnesses", corrupted)
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


def _double_g1_g1(g):
    key = next(k for k in sorted(g.table.brackets)
               if g.degree[k[0]] == g.degree[k[1]] == 1)
    vec = g.table.brackets[key]
    vec[next(iter(vec))] *= 2


def test_corrupted_bracket_fails_spencer_qdim(monkeypatch):
    _corrupt_build_g(monkeypatch, _double_g1_g1)
    rep = run("B3", {"spencer"}, RunOptions(seed=7))
    rec = next(c for c in rep.checks if c.check_id == "spencer-qdim")
    # ad g_{-1} is no longer a cocycle, so del becomes injective on C^{-1,1}
    assert rec.values["ranks"][-1] == rec.values["dim_C1"][-1] == 26
    assert rec.status == "FAIL"


def test_prolong_and_spencer_share_one_tower(monkeypatch):
    calls = {"g_tower": 0, "substitutions": 0, "levels": []}
    real_tower, real_forced = spencer.g_tower, spencer.forced_rank

    def g_tower(g):
        calls["g_tower"] += 1
        return real_tower(g)

    def forced_rank(inp, tower, k, *args):
        calls["levels"].append(k)
        return real_forced(inp, tower, k, *args)

    def counting(real):
        def residual_is_zero(inp, tower, k, phi):
            calls["substitutions"] += k == 1
            return real(inp, tower, k, phi)
        return residual_is_zero

    monkeypatch.setattr(spencer, "g_tower", g_tower)
    monkeypatch.setattr(spencer, "forced_rank", forced_rank)
    for mod in (prolong, spencer):
        monkeypatch.setattr(mod, "residual_is_zero",
                            counting(mod.residual_is_zero))
    rep = run("B3", {"prolong", "spencer"}, RunOptions(seed=7))
    assert rep.status == "PASS"
    assert calls["g_tower"] == 1
    assert calls["substitutions"] == 2      # the two ad witnesses of B3
    assert sorted(calls["levels"]) == list(range(1, 8))


def test_doubled_bracket_fails_prolong_and_spencer(monkeypatch):
    _corrupt_build_g(monkeypatch, _double_g1_g1)
    rep = run("B3", {"prolong", "spencer"}, RunOptions(seed=7))
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["prolong-dims"] == statuses["spencer-qdim"] == "FAIL"


def _v3_to_degree_4(g):
    g.degree[g.V_level_indices[3][0]] = 4


@pytest.mark.parametrize("groups,failed", [
    ({"prolong"}, ["prolong-dims", "prolong-ad-witnesses"]),
    ({"spencer"}, ["spencer-cocycle-ad", "restricted-differentials",
                   "spencer-qdim"]),
])
def test_corrupted_degree_fails_tower_readers(monkeypatch, groups, failed):
    # [g_{-1}, V_3] lands in g_2, not in g_3: building the tower stops, and
    # every record that reads it FAILs with the reason instead of run raising
    _corrupt_build_g(monkeypatch, _v3_to_degree_4)
    rep = run("B3", groups, RunOptions(seed=7))
    recs = {c.check_id: c for c in rep.checks}
    assert recs["case-dims"].status == "FAIL"
    for check_id in failed:
        assert recs[check_id].status == "FAIL"
        assert "not additive" in recs[check_id].values["error"]
    assert exit_code(rep) == 1


def test_solve_error_fails_every_reader(monkeypatch):
    # an error in the shared solve is a FAIL record on each check that
    # reads it, not an exception out of run
    real = spencer.cochain_dims
    monkeypatch.setattr(spencer, "cochain_dims",
                        lambda g, k: (real(g, k)[0] + 1, real(g, k)[1]))
    rep = run("B3", {"prolong", "spencer"}, RunOptions(seed=7))
    recs = {c.check_id: c for c in rep.checks}
    for check_id in ("prolong-dims", "spencer-qdim"):
        assert recs[check_id].status == "FAIL"
        assert "bookkeeping" in recs[check_id].values["error"]


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_prolong_dims_match_prolongation(label):
    g = build_g(build_case(label))
    inp, gplus, g0 = input_from_g(g)
    res = prolongation(inp, 2, witnesses={1: ad_witnesses(g, inp, gplus, g0)})
    rep = run(label, {"prolong"}, RunOptions(seed=7))
    rec = next(c for c in rep.checks if c.check_id == "prolong-dims")
    assert (rec.dims["p_minus_1"], rec.dims["p_minus_2"]) == (res.dims[1],
                                                              res.dims[2])


def test_doubled_ad_constant_fails_spencer_cocycle(monkeypatch):
    def double_gm1_g1(g):
        key = next(k for k in sorted(g.table.brackets)
                   if sorted((g.degree[k[0]], g.degree[k[1]])) == [-1, 1]
                   and g.table.brackets[k])
        vec = g.table.brackets[key]
        m = min(vec)
        g.table.brackets[key] = {**vec, m: 2 * vec[m]}

    _corrupt_build_g(monkeypatch, double_gm1_g1)
    rep = run("B3", {"spencer"}, RunOptions(seed=7))
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["spencer-cocycle-ad"] == "FAIL"
    assert exit_code(rep) == 1


def _v_bracket_hits_v0(case):
    """Let one nonzero [V, V] bracket of s also hit v0, outside s_2."""
    s = case.s_table
    idx = {case.root_index(v) for v in case.V_roots}
    key = min(k for k, v in s.brackets.items()
              if v and k[0] in idx and k[1] in idx)
    s.brackets[key][case.root_index(case.v0_root)] = Fraction(1)
    return case


def _escaped_sigma_report():
    real = verify.build_case
    verify.build_case = lambda case_id: _v_bracket_hits_v0(real(case_id))
    try:
        return run("B3", {"forms"}, RunOptions(seed=7))
    finally:
        verify.build_case = real


def test_escaped_sigma_bracket_fails_sigma_form():
    rep = _escaped_sigma_report()
    rec = next(c for c in rep.checks if c.check_id == "sigma-form")
    assert rec.status == "FAIL"
    assert "escaped s_2" in rec.values["error"]
    assert exit_code(rep) == 1


def test_escaped_sigma_bracket_fails_under_python_O():
    # the guard must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_verifier import _escaped_sigma_report",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "rep = _escaped_sigma_report()",
        "rec = next(c for c in rep.checks if c.check_id == 'sigma-form')",
        "sys.exit(0 if rec.status == 'FAIL' else 'escaped bracket accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _v3_moved_to_v2(case):
    v3 = next(v for v in case.V_roots if case.V_root_level[v] == 3)
    case.V_root_level[v3] = 2


def _merged_ideals(case):
    case._ideal_of_root = dict.fromkeys(case._ideal_of_root, 0)


def _corrupted_forms_report(corrupt):
    """Run B3 forms with the case corrupted once g is built (build_g would
    reject the first corruption itself)."""
    real = verify.build_g

    def corrupted(case):
        g = real(case)
        corrupt(case)
        return g

    verify.build_g = corrupted
    try:
        return run("B3", {"forms"}, RunOptions(seed=7))
    finally:
        verify.build_g = real


# (corruption, the records it must turn FAIL, a word of their error)
FORMS_ERRORS = [
    ("_v3_moved_to_v2", ["fundamental-forms", "base-locus-samples"], "V_3"),
    ("_merged_ideals", ["base-locus-samples"], "highest weight"),
]


@pytest.mark.parametrize("corrupt,failed,word", FORMS_ERRORS)
def test_forms_errors_fail_forms_checks(corrupt, failed, word):
    rep = _corrupted_forms_report(globals()[corrupt])
    recs = {c.check_id: c for c in rep.checks}
    for check_id in failed:
        assert recs[check_id].status == "FAIL"
        assert word in recs[check_id].values["error"]
    assert exit_code(rep) == 1


@pytest.mark.parametrize("corrupt,failed,word", FORMS_ERRORS)
def test_forms_errors_fail_under_python_O(corrupt, failed, word):
    # the guards must not be asserts, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        f"from test_verifier import _corrupted_forms_report, {corrupt}",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        f"rep = _corrupted_forms_report({corrupt})",
        "st = {c.check_id: c.status for c in rep.checks}",
        f"sys.exit(0 if all(st[c] == 'FAIL' for c in {failed!r}) else str(st))",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _zero_sigma_pair(case):
    """Zero one [v, theta - v] bracket of s, v and theta - v both not v0."""
    s = case.s_table
    theta = case.root_index(case.rs.highest_root)
    idx = {case.root_index(v) for v in case.V_roots} - {case.v0_index}
    key = min(k for k, vec in s.brackets.items()
              if theta in vec and k[0] in idx and k[1] in idx)
    s.brackets[key] = {}


def _zero_beta_entry(case):
    """Zero the V_3 coefficient of one [a, w] bracket, a in l_1, w in V_2."""
    s = case.s_table
    v3 = next(case.root_index(v) for v in case.V_roots
              if case.V_root_level[v] == 3)
    pairs = {(case.root_index(a), case.root_index(w))
             for a in case.l1_roots() for w in case.V_roots
             if case.V_root_level[w] == 2}
    key = min(k for k, vec in s.brackets.items()
              if v3 in vec and (k in pairs or k[::-1] in pairs))
    del s.brackets[key][v3]


# (corruption, the record it must turn FAIL, the value that reads false);
# each makes a determinant vanish without raising an error
FORMS_VALUE_FAULTS = [
    ("_zero_sigma_pair", "sigma-form", "det_nonzero"),
    ("_zero_beta_entry", "fundamental-forms", "beta_det_nonzero"),
]


@pytest.mark.parametrize("corrupt,check_id,value", FORMS_VALUE_FAULTS)
def test_vanishing_determinant_fails_forms_check(corrupt, check_id, value):
    rep = _corrupted_forms_report(globals()[corrupt])
    rec = next(c for c in rep.checks if c.check_id == check_id)
    assert rec.status == "FAIL"
    assert "error" not in rec.values
    assert rec.values[value] is False
    if check_id == "sigma-form":
        assert rec.values["alternating"] and rec.values["osculating_hyperplane"]
    assert exit_code(rep) == 1


def test_swapped_v_levels_fail_cI_components(monkeypatch):
    def swap_v1_v2(g):
        levels = g.V_level_indices
        g.V_level_indices = {**levels, 1: levels[2], 2: levels[1]}

    _corrupt_build_g(monkeypatch, swap_v1_v2)
    rep = run("B3", {"weights"}, RunOptions(seed=7))
    rec = next(c for c in rep.checks if c.check_id == "cI-components")
    assert rec.status == "FAIL"
    assert rec.values["cI(V_1)"] == [Fraction(1, 2)]
    assert exit_code(rep) == 1


def test_merged_ideals_fail_xvv_kernel(monkeypatch):
    # sampling asks for one highest weight per ideal of l_1; the error is a
    # FAIL record, not an exception out of run
    real = verify.build_g

    def corrupted(case):
        g = real(case)
        _merged_ideals(case)
        return g

    monkeypatch.setattr(verify, "build_g", corrupted)
    rep = run("B3", {"xvv"}, RunOptions(seed=7))
    rec = next(c for c in rep.checks if c.check_id == "xvv-kernel")
    assert rec.status == "FAIL"
    assert "highest weight" in rec.values["error"]
    assert exit_code(rep) == 1


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


def test_json_report_matches_golden_file(tmp_path):
    # the committed report of `verify --case B3,D4,F4 --checks all --seed 7
    # --format json`: values, their JSON types ("p/q" for every c^I) and the
    # layout must not drift; regenerate the file only for an intended change
    out = tmp_path / "rep.json"
    main(["--case", "B3,D4,F4", "--checks", "all", "--seed", "7",
          "--format", "json", "--out", str(out)])
    golden = Path(__file__).parent / "report_B3_D4_F4_seed7.json"
    assert out.read_bytes() == golden.read_bytes()


def test_cli_single_case_json(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["--case", "B3", "--checks", "weights", "--seed", "7",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["case"] == "B3"
