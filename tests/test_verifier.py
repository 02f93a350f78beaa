import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from subadjoint import cases, cli, prolong, rootsys, spencer, verify
from subadjoint.cases import (
    CaseExcludedError,
    build_case,
    fundamental_forms,
    highest_weight_roots_of_l1,
    sample_closed_orbit,
)
from subadjoint.cli import main
from subadjoint.galg import build_g
from subadjoint.liecore import check_jacobi
from subadjoint.linalg import span
from subadjoint.prolong import g_tower, prolongation
from subadjoint.rootsys import (build_root_system, chevalley_generators,
                               chevalley_table)
from subadjoint.verify import (
    CaseDescriptor,
    CheckRecord,
    VerificationReport,
    emit,
    exit_code,
    list_cases,
    registry_entry,
    run,
)

import oracles
from test_cases import _l0_moves_v0_table


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


def test_registry_entry_reaches_the_rootsys_rank_cap(capsys):
    # B and D stop at the cap of rootsys._RANK_RANGES, in the registry too
    assert registry_entry("B12").dim_V == 2 * (2 * 12 - 3)
    assert registry_entry("D12").dim_V == 2 * (2 * 12 - 4)
    for case_id in ("B13", "D13"):
        with pytest.raises(KeyError):
            registry_entry(case_id)
    assert main(["--case", "B13"]) == 3
    assert "B13" in capsys.readouterr().err


def test_registry_dims_internally_consistent():
    for c in list_cases():
        if c.excluded:
            continue
        assert c.dim_V == 2 * c.dim_l1 + 2
        assert sum(c.g_dims) == 1 + c.dim_l + c.dim_V


def _bad_registry_row():
    """A registry row with dim V = 13 != 2 dim l_1 + 2 = 12."""
    return CaseDescriptor(case_id="X", dim_V=13, dim_l1=5, dim_l=6,
                          g_dims=(5, 3, 10, 5, 1), l_factors=(), note="")


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
    rep = run("B3", {"gstructure"}, seed=7)
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["g-dims"] == "FAIL"


def test_run_excluded_case_raises():
    with pytest.raises(CaseExcludedError):
        run("G2", {"jacobi"})


def test_run_unknown_check_rejected():
    # "all" does not cover an unknown name
    for checks in ({"bogus"}, {"all", "bogus"}):
        with pytest.raises(ValueError, match="bogus"):
            run("B3", checks)


def test_empty_check_set_is_vacuous():
    rep = run("B3", set())
    assert rep.vacuous
    assert rep.checks == []
    assert rep.status == "PASS"
    assert exit_code(rep) == 0


def test_b3_full_run_passes():
    rep = run("B3", {"all"}, seed=7)
    assert rep.status == "PASS"
    ids = [c.check_id for c in rep.checks]
    for expected in ("case-dims", "contact-grading", "jacobi-ambient",
                     "sigma-form", "xvv-kernel", "prolong-dims",
                     "restricted-differentials", "cI-six-families"):
        assert expected in ids
    assert exit_code(rep) == 0


def test_report_status_ordering(capsys):
    # two outcomes: any FAIL record fails the report and exits 1
    mk = lambda status: CheckRecord(check_id="x", status=status)
    rep = lambda *statuses: VerificationReport(
        "B3", "0", [mk(s) for s in statuses], {}, {})
    for failing in (rep("FAIL"), rep("PASS", "FAIL"), rep("FAIL", "PASS")):
        assert failing.status == "FAIL"
        assert exit_code(failing) == 1
    passing = rep("PASS", "PASS")
    assert passing.status == "PASS"
    assert exit_code(passing) == 0
    assert exit_code([passing, rep("PASS", "FAIL")]) == 1
    assert main(["--case", "B3", "--checks", "none"]) == 0
    assert "(vacuous)" in capsys.readouterr().out


def test_json_roundtrip():
    rep = run("B3", {"weights"}, seed=7)
    doc = emit(rep, fmt="json")
    parsed = json.loads(doc)
    assert parsed["case"] == "B3"
    assert parsed["status"] == rep.status
    assert parsed["environment"]["seed"] == 7
    byid = {c["id"]: c for c in parsed["checks"]}
    assert byid["cI-embedding-weight"]["values"]["cI_omega_star"] == "3/2"
    assert all(c["millis"] == 0 for c in parsed["checks"])


def test_emit_deterministic_in_process():
    a = emit(run("D4", {"weights"}, seed=7), fmt="json")
    b = emit(run("D4", {"weights"}, seed=7), fmt="json")
    assert a == b


def test_e_series_runs_solvers_by_default():
    rep = run("E6", {"prolong", "spencer"}, seed=1)
    statuses = {c.check_id: c.status for c in rep.checks}
    assert set(statuses) >= {"prolong-dims", "prolong-ad-witnesses",
                             "spencer-cocycle-ad", "restricted-differentials",
                             "spencer-qdim"}
    assert set(statuses.values()) == {"PASS"}
    assert exit_code(rep) == 0


def test_corrupted_witness_fails_prolong_checks(monkeypatch):
    real = verify.g_tower

    def corrupted(g):
        tower = real(g)
        block = next(b for b in tower.bases[1][0] if b)
        block[next(iter(block))] += 1
        return tower

    monkeypatch.setattr(verify, "g_tower", corrupted)
    rep = run("B3", {"prolong"}, seed=7)
    recs = {c.check_id: c for c in rep.checks}
    assert recs["prolong-dims"].status == "FAIL"
    assert "witness" in recs["prolong-dims"].values["error"]
    assert recs["prolong-ad-witnesses"].status == "FAIL"
    assert not recs["prolong-ad-witnesses"].values[
        "witnesses_satisfy_compatibility"]
    assert exit_code(rep) == 1


def _corrupted_run(label, corrupt, groups):
    """Run the groups of label with corrupt(case, g) applied once g is built
    (build_g itself would reject some corruptions of the case)."""
    real = verify.build_g

    def corrupted(case):
        g = real(case)
        corrupt(case, g)
        return g

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "build_g", corrupted)
        return run(label, groups, seed=7)


def _double_g1_g1(case, g):
    key = next(k for k in sorted(g.table.brackets)
               if g.degree[k[0]] == g.degree[k[1]] == 1)
    vec = g.table.brackets[key]
    vec[next(iter(vec))] *= 2


def test_corrupted_bracket_fails_spencer_qdim():
    rep = _corrupted_run("B3", _double_g1_g1, {"spencer"})
    rec = next(c for c in rep.checks if c.check_id == "spencer-qdim")
    # ad g_{-1} is no longer a cocycle, so del becomes injective on C^{-1,1}
    assert rec.values["ranks"][-1] == rec.values["dim_C1"][-1] == 26
    assert rec.status == "FAIL"


def test_prolong_and_spencer_share_one_tower(monkeypatch):
    calls = {"g_tower": 0, "substitutions": 0, "levels": []}
    real_tower, real_forced = verify.g_tower, spencer.forced_rank

    def g_tower(g):
        calls["g_tower"] += 1
        return real_tower(g)

    def forced_rank(tower, k, *args):
        calls["levels"].append(k)
        return real_forced(tower, k, *args)

    def counting(real):
        def residual_is_zero(tower, k, phi):
            calls["substitutions"] += k == 1
            return real(tower, k, phi)
        return residual_is_zero

    monkeypatch.setattr(verify, "g_tower", g_tower)
    monkeypatch.setattr(spencer, "forced_rank", forced_rank)
    for mod in (prolong, verify):
        monkeypatch.setattr(mod, "residual_is_zero",
                            counting(mod.residual_is_zero))
    rep = run("B3", {"prolong", "spencer"}, seed=7)
    assert rep.status == "PASS"
    assert calls["g_tower"] == 1
    assert calls["substitutions"] == 2      # the two ad witnesses of B3
    assert sorted(calls["levels"]) == list(range(1, 8))


def test_doubled_bracket_fails_prolong_and_spencer():
    rep = _corrupted_run("B3", _double_g1_g1, {"prolong", "spencer"})
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["prolong-dims"] == statuses["spencer-qdim"] == "FAIL"


def _v3_to_degree_4(case, g):
    g.degree[g.V_level_indices[3][0]] = 4


@pytest.mark.parametrize("groups,failed", [
    ({"prolong"}, ["prolong-dims", "prolong-ad-witnesses"]),
    ({"spencer"}, ["spencer-cocycle-ad", "restricted-differentials",
                   "spencer-qdim"]),
])
def test_corrupted_degree_fails_tower_readers(groups, failed):
    # [g_{-1}, V_3] lands in g_2, not in g_3: building the tower stops, and
    # every record that reads it FAILs with the reason instead of run raising
    rep = _corrupted_run("B3", _v3_to_degree_4, groups)
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
    rep = run("B3", {"prolong", "spencer"}, seed=7)
    recs = {c.check_id: c for c in rep.checks}
    for check_id in ("prolong-dims", "spencer-qdim"):
        assert recs[check_id].status == "FAIL"
        assert "bookkeeping" in recs[check_id].values["error"]


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_prolong_dims_match_prolongation(label):
    g = build_g(build_case(label))
    tower = g_tower(g)
    res = prolongation(tower.inp, 2, witnesses={1: tower.bases[1]})
    rep = run(label, {"prolong"}, seed=7)
    rec = next(c for c in rep.checks if c.check_id == "prolong-dims")
    assert (rec.dims["p_minus_1"], rec.dims["p_minus_2"]) == (res.dims[1],
                                                              res.dims[2])


def test_doubled_ad_constant_fails_spencer_cocycle():
    rep = _corrupted_run("B3", _double_gm1_g1, {"spencer"})
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
        return run("B3", {"forms"}, seed=7)
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


def _v3_moved_to_v2(case, g):
    v3 = next(v for v in case.V_roots if case.V_root_level[v] == 3)
    case.V_root_level[v3] = 2


def _merged_ideals(case, g):
    case._ideal_of_root = dict.fromkeys(case._ideal_of_root, 0)


# (corruption, the records it must turn FAIL, a word of their error)
FORMS_ERRORS = [
    ("_v3_moved_to_v2", ["fundamental-forms", "base-locus-samples"], "V_3"),
    ("_merged_ideals", ["base-locus-samples"], "highest weight"),
]


@pytest.mark.parametrize("corrupt,failed,word", FORMS_ERRORS)
def test_forms_errors_fail_forms_checks(corrupt, failed, word):
    rep = _corrupted_run("B3", globals()[corrupt], {"forms"})
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
        f"from test_verifier import _corrupted_run, {corrupt}",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        f"rep = _corrupted_run('B3', {corrupt}, {{'forms'}})",
        "st = {c.check_id: c.status for c in rep.checks}",
        f"sys.exit(0 if all(st[c] == 'FAIL' for c in {failed!r}) else str(st))",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _zero_sigma_pair(case, g):
    """Zero one [v, theta - v] bracket of s, v and theta - v both not v0."""
    s = case.s_table
    theta = case.root_index(case.rs.highest_root)
    idx = ({case.root_index(v) for v in case.V_roots}
           - {case.root_index(case.v0_root)})
    key = min(k for k, vec in s.brackets.items()
              if theta in vec and k[0] in idx and k[1] in idx)
    s.brackets[key] = {}


def _zero_beta_entry(case, g):
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
    rep = _corrupted_run("B3", globals()[corrupt], {"forms"})
    rec = next(c for c in rep.checks if c.check_id == check_id)
    assert rec.status == "FAIL"
    assert "error" not in rec.values
    assert rec.values[value] is False
    if check_id == "sigma-form":
        assert rec.values["osculating_hyperplane"]
    assert exit_code(rep) == 1


def test_swapped_v_levels_fail_cI_components():
    rep = _corrupted_run("B3", _swap_v1_v2, {"weights"})
    rec = next(c for c in rep.checks if c.check_id == "cI-components")
    assert rec.status == "FAIL"
    assert rec.values["cI(V_1)"] == [Fraction(1, 2)]
    assert exit_code(rep) == 1


def test_merged_ideals_fail_xvv_kernel():
    # sampling asks for one highest weight per ideal of l_1; the error is a
    # FAIL record, not an exception out of run
    rep = _corrupted_run("B3", _merged_ideals, {"xvv"})
    rec = next(c for c in rep.checks if c.check_id == "xvv-kernel")
    assert rec.status == "FAIL"
    assert "highest weight" in rec.values["error"]
    assert exit_code(rep) == 1


def test_zeroed_l_pairing_leaves_all_of_lminus1_in_the_core():
    rep = _corrupted_run("B3", _zero_lminus1_l1_brackets, {"xvv"})
    rec = next(c for c in rep.checks if c.check_id == "xvv-kernel")
    assert rec.status == "FAIL"
    dim_lm1 = len(build_case("B3").lminus1_roots())
    assert rec.dims["kernel"] == rec.values["dim_K_hw"] == dim_lm1
    assert rec.values["core_rounds"] == 1


def _ii_nonzero_at_hw(case, g):
    # [hw, [hw, v0]] gains a V_2 term, so II(hw, hw) != 0 on the first ideal
    hw = highest_weight_roots_of_l1(case)[0]
    v1 = tuple(a + b for a, b in zip(hw, case.v0_root))
    v2 = next(v for v in case.V_roots if case.V_root_level[v] == 2)
    i, j = sorted((case.root_index(hw), case.root_index(v1)))
    case.s_table.brackets[(i, j)] = {case.root_index(v2): 1}


def test_ii_at_hw_outside_b3_fails_base_locus():
    # outside B3 every ideal of l_1 lies in the base locus of II
    rep = _corrupted_run("F4", _ii_nonzero_at_hw, {"forms"})
    rec = next(c for c in rep.checks if c.check_id == "base-locus-samples")
    assert rec.status == "FAIL"
    assert "error" not in rec.values
    assert rec.values["ii_pattern_ok"] is False
    assert exit_code(rep) == 1


def _sampled_base_locus(case, seed):
    """The base-locus verdict from sampled orbit points: II and III at
    max(10, ideal dims) points per ideal, and the points span each ideal."""
    forms = fundamental_forms(case)
    hw = highest_weight_roots_of_l1(case)
    ideals = [[r for r in case.l1_roots() if case.ideal_of_root(r) == ci]
              for ci in range(len(hw))]
    per = max([10, *map(len, ideals)])
    samples = sample_closed_orbit(case, per, seed)
    batches = [samples[ci * per:(ci + 1) * per] for ci in range(len(hw))]
    ii_null = [all(not any(oracles.ii_value(case, forms, b)) for b in batch)
               for batch in batches]
    if case.s_label == "B3":
        marked = [next(m for m in case.marked if case._node_comp[m] == ci)
                  for ci in range(len(hw))]
        ii_ok = all(null == (case.embedding_weight[m] == 1)
                    for null, m in zip(ii_null, marked))
    else:
        ii_ok = all(ii_null)
    return {
        "iii_vanishes_at_hw": all(oracles.iii_value(case, forms, b) == 0
                                  for b in samples),
        "ii_pattern_ok": ii_ok,
        "hw_generates_each_ideal": all(
            span(case.s_table.dim, batch).rank == len(ideal)
            for batch, ideal in zip(batches, ideals)),
        "strictness_case": case.s_label == "B3",
    }


@pytest.mark.parametrize("label,corrupt", [
    ("B3", None), ("F4", None), ("E6", None),
    ("B3", "_swap_line_and_conic"), ("F4", "_ii_nonzero_at_hw"),
])
def test_base_locus_at_hw_matches_sampled_evaluation(label, corrupt):
    case = build_case(label)
    if corrupt:
        globals()[corrupt](case, None)
    ctx = verify._Context(registry_entry(label), seed=7)
    ctx.case = case
    [rec] = verify._base_locus_samples(ctx)
    assert rec["values"] == _sampled_base_locus(case, seed=7)
    assert rec["status"] == ("FAIL" if corrupt else "PASS")


@pytest.mark.parametrize("label,corrupt", [
    ("B3", None), ("E6", None), ("B3", "_ad_v0_plus_identity_on_g_plus"),
])
def test_a_squared_verdict_matches_random_trials(label, corrupt):
    case = build_case(label)
    g = build_g(case)
    if corrupt:
        globals()[corrupt](case, g)
    holds, _, _ = spencer.conjugation_expansion_check(g)
    trials = oracles.conjugation_expansion_check(g, trials=5, seed=7)
    assert trials.status == ("FAIL" if corrupt else "PASS")
    assert holds == (not corrupt)


def test_no_status_reads_the_seed():
    # the reports at two seeds differ only in the seed and in the sampled
    # cross-check of xvv-kernel
    def records(seed):
        out = []
        for label, groups in [("B3", {"all"}), ("D4", {"all"}),
                              ("F4", {"all"}), ("E6", {"all"}),
                              ("E8", {"forms", "xvv", "gstructure"})]:
            doc = run(label, groups, seed=seed).to_json_dict()
            assert doc["environment"].pop("seed") == seed
            for rec in doc["checks"]:
                if rec["id"] == "xvv-kernel":
                    del rec["values"]["sampled_kernel"]
                    del rec["values"]["samples"]
            out.append(doc)
        return out

    assert records(7) == records(8)


def test_lost_v3_fails_six_families():
    rep = _corrupted_run("B3", _drop_v3, {"weights"})
    statuses = {c.check_id: c.status for c in rep.checks}
    assert statuses["cI-six-families"] == "FAIL"


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "G2" in out and "EXCLUDED" in out


def test_cli_excluded_case_usage_error(capsys):
    assert main(["--case", "G2"]) == 3


def test_g2_is_a_negative_control_without_an_error(monkeypatch):
    # dim V = 4 lies outside the flatness theorem's hypothesis (dim >= 5):
    # the first prolongation is 4 where the flat answer, dim g_{-1}, is 1
    row = dataclasses.replace(registry_entry("G2"), excluded=False)
    monkeypatch.setattr(verify, "active_entry", lambda case_id: row)
    rep = run("G2", set(verify.CHECK_GROUPS), seed=7)
    failing = {c.check_id: c for c in rep.checks if c.status == "FAIL"}
    assert sorted(failing) == ["base-locus-samples", "prolong-dims",
                               "spencer-qdim"]
    assert not any("error" in c.values for c in failing.values())
    dims = failing["prolong-dims"].dims
    assert (dims["p_minus_1"], dims["p_minus_2"]) == (4, 0)
    qdim = failing["spencer-qdim"].values
    assert (qdim["ranks"][-1], qdim["dim_C1"][-1]) == (5, 9)
    assert exit_code(rep) == 1


def test_cli_repeated_case_id_runs_once(capsys):
    assert main(["--case", "B3,B3", "--checks", "weights",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, dict) and doc["case"] == "B3"


@pytest.mark.parametrize("value", [",", "", " , "])
def test_cli_empty_case_list_usage_error(value, capsys):
    # a run that verifies no case must not report success
    assert main(["--case", value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no case id" in captured.err


@pytest.mark.parametrize("value", [",", "", " , "])
def test_cli_empty_checks_list_usage_error(value, capsys):
    # a run that checks nothing must not report success; only 'none' asks
    # for an empty report
    assert main(["--case", "B3", "--checks", value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no check group" in captured.err


def test_cli_unknown_check_usage_error(capsys):
    assert main(["--case", "B3", "--checks", "nope"]) == 3


def test_cli_argparse_errors_are_usage_errors(capsys):
    # argparse alone would exit 2, which is not a verify exit code
    assert main(["--mode", "exact"]) == 3
    assert main(["--seed", "x"]) == 3
    assert main(["--samples", "10"]) == 3
    assert main(["--rank-ceiling", "8"]) == 3
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


def test_json_report_matches_golden_file_under_python_O():
    # the same report from `python -O -m subadjoint`: no record may rest on
    # an assert, which -O strips
    r = subprocess.run(
        [sys.executable, "-O", "-m", "subadjoint", "--case", "B3,D4,F4",
         "--checks", "all", "--seed", "7", "--format", "json"],
        capture_output=True, timeout=300)
    assert r.returncode == 0, r.stderr
    golden = Path(__file__).parent / "report_B3_D4_F4_seed7.json"
    assert r.stdout == golden.read_bytes()


def test_cli_single_case_json(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["--case", "B3", "--checks", "weights", "--seed", "7",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["case"] == "B3"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_out_usage_error(tmp_path, capsys, where):
    # the report cannot be written: a usage error, not a check FAIL
    out = tmp_path / "missing" / "rep.json" if where != "directory" else tmp_path
    assert main(["--case", "B3", "--checks", "weights", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write --out")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                 where):
    # a path that cannot be opened is reported before the first case runs
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "rep.json" if where != "directory" else tmp_path
    assert main(["--case", "B3", "--checks", "weights", "--out", str(out)]) == 3
    assert calls == []
    assert capsys.readouterr().err.startswith("error: cannot write --out")


def test_e_series_json_report_matches_golden_file(tmp_path):
    # the committed report of `verify --case E6,E7 --checks
    # prolong,spencer,forms,weights --seed 7 --format json`: the E-series
    # construction, prolongation, Spencer and weight values must not drift;
    # regenerate the file only for an intended change
    out = tmp_path / "rep.json"
    main(["--case", "E6,E7", "--checks", "prolong,spencer,forms,weights",
          "--seed", "7", "--format", "json", "--out", str(out)])
    golden = Path(__file__).parent / "report_E6_E7_seed7.json"
    assert out.read_bytes() == golden.read_bytes()


# sha256 of `verify --case all --checks all --seed 7 --format json`; change
# it only for an intended change of a report
DEFAULT_RUN_SHA256 = \
    "87561f38ac7715abec27c275a0145b426ed5d265e3ffc5b80d47fbf0d7d4af53"


def test_default_run_json_digest(tmp_path):
    # every active case, B5..B8, D5..D8 and E8 included, which the golden
    # files above do not cover
    out = tmp_path / "rep.json"
    assert main(["--case", "all", "--checks", "all", "--seed", "7",
                 "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_RUN_SHA256


def test_key_error_in_a_check_propagates_out_of_main(monkeypatch):
    # a KeyError inside a check is a bug: a traceback, not a usage error
    def broken(ctx):
        raise KeyError("missing")

    table = list(verify.CHECKS)
    group, ids, _ = table[2]
    table[2] = (group, ids, broken)
    monkeypatch.setattr(verify, "CHECKS", tuple(table))
    with pytest.raises(KeyError, match="missing"):
        main(["--case", "B3", "--checks", group])


@pytest.mark.parametrize("case_arg,word", [
    ("B3,Z9", "unknown case id 'Z9'"),
    ("B3,G2", "excluded case"),
])
def test_cli_bad_case_id_fails_before_the_run(monkeypatch, capsys, case_arg,
                                              word):
    # every --case id is resolved before the first case runs
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args: calls.append(args))
    assert main(["--case", case_arg]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert word in captured.err


def test_timings_count_each_entry_once(monkeypatch):
    # each entry takes one second of a fake clock: its first id carries
    # 1000 ms and its other ids 0, so the millis sum to one per entry
    ticks = itertools.count()
    monkeypatch.setattr(verify, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    rep = run("B3", {"all"}, seed=7)
    millis = {c.check_id: c.millis for c in rep.checks}
    for _, ids, _ in verify.CHECKS:
        assert [millis[i] for i in ids] == [1000] + [0] * (len(ids) - 1)
    doc = json.loads(emit(rep, fmt="json", timings=True))
    assert sum(c["millis"] for c in doc["checks"]) == 1000 * len(verify.CHECKS)


def _drop_v3(case, g):
    g.V_level_indices = {**g.V_level_indices, 3: ()}


def test_lost_v3_fails_restricted_differentials():
    # partial_prime_checks needs V_3 to be a line; its error is a FAIL
    # record, not an exception out of run
    rep = _corrupted_run("B3", _drop_v3, {"spencer"})
    rec = next(c for c in rep.checks if c.check_id == "restricted-differentials")
    assert rec.status == "FAIL"
    assert "V_3" in rec.values["error"]
    assert exit_code(rep) == 1


# --------------------------------------------------------------------------
# negative controls: one corruption per check id of CHECKS
# --------------------------------------------------------------------------

def _bracket_key(g, pred):
    """The first stored nonzero bracket (i, j) of g with pred(i, j)."""
    return next(k for k in sorted(g.table.brackets)
                if g.table.brackets[k] and pred(*k))


def _set_bracket(g, i, j, vec):
    """[e_i, e_j] = vec in g's table, stored as (min, max)."""
    sign = 1 if i < j else -1
    g.table.brackets[(min(i, j), max(i, j))] = {
        k: sign * c for k, c in vec.items()}


def _drop_contact_line(case, g):
    # the s_2 line moves to degree 1, so s_2 is zero-dimensional
    degree = case.contact.degree
    degree[next(i for i, d in degree.items() if d == 2)] = 1


def _double_s_bracket(case, g):
    vec = case.s_table.brackets[min(k for k, v in case.s_table.brackets.items()
                                    if v)]
    vec[next(iter(vec))] *= 2


def _swap_line_and_conic(case, g):
    # B3's l_1 is (line) + (conic): the check expects the line, the factor
    # of degree 1, in the base locus of II
    swap = {1: 2, 2: 1}
    case.embedding_weight = tuple(swap.get(c, c)
                                  for c in case.embedding_weight)


def _zero_lminus1_l1_brackets(case, g):
    # [l_{-1}, l_1] = 0 in s: K(hw) is all of l_{-1}, and l_0 keeps it
    s = case.s_table
    lm1 = {case.root_index(r) for r in case.lminus1_roots()}
    l1 = {case.root_index(r) for r in case.l1_roots()}
    for i, j in s.brackets:
        if (i in lm1 and j in l1) or (i in l1 and j in lm1):
            s.brackets[(i, j)] = {}


def _l1_bracket_hits_v0(case, g):
    a, b = g.l1_indices[:2]
    _set_bracket(g, a, b, {g.v0_index: 1})


def _v1_bracket_hits_v3(case, g):
    _set_bracket(g, g.V_level_indices[1][0], g.V_level_indices[2][0],
                 {g.V_level_indices[3][0]: 1})


def _v1_listed_in_l1(case, g):
    g.l1_indices = (*g.l1_indices, g.V_level_indices[1][0])


def _zero_v0_l1_bracket(case, g):
    v0, l1 = g.v0_index, set(g.l1_indices)
    key = _bracket_key(g, lambda i, j: {i, j} - {v0} <= l1 and v0 in (i, j))
    g.table.brackets[key] = {}


def _v0_bracket_on_v1(case, g):
    # A = ad v0 no longer squares to zero: A l_1 = V_1 and now A V_1 != 0
    _set_bracket(g, g.v0_index, g.V_level_indices[1][0],
                 {g.V_level_indices[2][0]: 1})


def _osc_level_shifted(case, g):
    g.osc_level[g.V_level_indices[1][0]] += 1


def _cartan_kills_g1(case, g):
    h = g.l0_indices[0]
    g1 = {i for i, d in enumerate(g.degree) if d == 1}
    for key in g.table.brackets:
        if h in key and set(key) & g1:
            g.table.brackets[key] = {}


def _g0_moves_v1_into_v2(case, g):
    v1 = set(g.V_level_indices[1])
    g0 = {i for i, d in enumerate(g.degree) if d == 0}
    key = _bracket_key(g, lambda i, j: {i, j} & v1 and {i, j} & g0)
    g.table.brackets[key][g.V_level_indices[2][0]] = 1


def _l0_moves_v0_into_v1(case, g):
    v0, l0 = g.v0_index, set(g.l0_indices)
    key = _bracket_key(g, lambda i, j: v0 in (i, j) and {i, j} & l0)
    g.table.brackets[key][g.V_level_indices[1][0]] = 1


def _ad_v0_plus_identity_on_g_plus(case, g):
    # A picks up the identity on g_+, so exp(sA) is no longer Id + sA
    v0 = g.v0_index
    for j, d in enumerate(g.degree):
        if d >= 1 and j != v0:
            key = (min(v0, j), max(v0, j))
            g.table.brackets[key] = {**g.table.brackets.get(key, {}), j: 1}


def _zero_pairing_entry(case, g):
    # the V_3 coefficient of one [a, w], a in l_1, w in V_2: the pairing
    # l_1 x V_2 -> V_3 becomes degenerate
    v3, v2, l1 = (g.V_level_indices[3][0], set(g.V_level_indices[2]),
                  set(g.l1_indices))
    key = _bracket_key(g, lambda i, j: v3 in g.table.brackets[(i, j)]
                       and {i, j} & v2 and {i, j} & l1)
    del g.table.brackets[key][v3]


def _double_gm1_g1(case, g):
    key = _bracket_key(
        g, lambda i, j: sorted((g.degree[i], g.degree[j])) == [-1, 1])
    vec = g.table.brackets[key]
    m = min(vec)
    g.table.brackets[key] = {**vec, m: 2 * vec[m]}


def _double_embedding_weight(case, g):
    case.embedding_weight_simple = tuple(
        2 * c for c in case.embedding_weight_simple)


def _swap_v1_v2(case, g):
    levels = g.V_level_indices
    g.V_level_indices = {**levels, 1: levels[2], 2: levels[1]}


# check id -> (case, corruption of (case, g) once both are built, a word of
# the FAIL record's error, or None when the check itself reads the fault)
NEGATIVE_CONTROLS = {
    "case-dims": ("B3", _v3_to_degree_4, None),
    "contact-grading": ("B3", _drop_contact_line, None),
    "jacobi-ambient": ("B3", _double_s_bracket, None),
    "sigma-form": ("B3", _zero_sigma_pair, None),
    "fundamental-forms": ("B3", _zero_beta_entry, None),
    "base-locus-samples": ("B3", _swap_line_and_conic, None),
    "xvv-kernel": ("B3", _zero_lminus1_l1_brackets, None),
    "g-jacobi": ("B3", _double_g1_g1, None),
    "g-dims": ("B3", _v3_to_degree_4, None),
    "identity-eII-coefficients": ("B3", _l1_bracket_hits_v0, None),
    "identity-v1-annihilator-of-v2": ("B3", _v1_bracket_hits_v3, None),
    "identity-l1-V1-intersection": ("B3", _v1_listed_in_l1, None),
    "identity-v0-bracket-image": ("B3", _zero_v0_l1_bracket, None),
    "identity-a-squared-zero": ("B3", _v0_bracket_on_v1, None),
    "identity-a-level-shift": ("B3", _osc_level_shifted, None),
    "ad-g0-faithful-on-g1": ("B3", _cartan_kills_g1, None),
    "g0-preserves-tensor-split": ("B3", _g0_moves_v1_into_v2, None),
    "c-functional": ("B3", _l0_moves_v0_into_v1, None),
    "est-expansion": ("B3", _ad_v0_plus_identity_on_g_plus, None),
    # every corruption found so far stops validate or a witness first
    "prolong-dims": ("B3", _double_g1_g1, "Jacobi"),
    "prolong-ad-witnesses": ("B3", _double_gm1_g1, None),
    "spencer-cocycle-ad": ("B3", _double_gm1_g1, None),
    "restricted-differentials": ("B3", _zero_pairing_entry, None),
    "spencer-qdim": ("B3", _double_g1_g1, None),
    "cI-embedding-weight": ("B3", _double_embedding_weight, None),
    "cI-components": ("B3", _swap_v1_v2, None),
    "cI-six-families": ("B3", _drop_v3, None),
}

# check id -> why no corruption of a built case or g flips it to FAIL
NO_NEGATIVE_CONTROL = {}

CHECK_IDS = [i for _, ids, _ in verify.CHECKS for i in ids]


def test_every_check_id_has_a_negative_control_or_a_reason():
    assert not set(NEGATIVE_CONTROLS) & set(NO_NEGATIVE_CONTROL)
    assert set(NEGATIVE_CONTROLS) | set(NO_NEGATIVE_CONTROL) == set(CHECK_IDS)


@pytest.mark.parametrize("check_id", sorted(NEGATIVE_CONTROLS))
def test_negative_control_fails_check(check_id):
    label, corrupt, word = NEGATIVE_CONTROLS[check_id]
    group = next(grp for grp, ids, _ in verify.CHECKS if check_id in ids)
    rep = _corrupted_run(label, corrupt, {group or "jacobi"})
    rec = next(c for c in rep.checks if c.check_id == check_id)
    assert rec.status == "FAIL"
    if word is None:
        assert "error" not in rec.values
    else:
        assert word in rec.values["error"]
    assert exit_code(rep) == 1


def _v2_listed_in_l1(case, g):
    g.l1_indices = (*g.l1_indices[:-1], g.V_level_indices[2][0])


@pytest.mark.parametrize("corrupt,word", [
    # l_1 one longer than V_2: the pairing l_1 x V_2 -> V_3 is not square
    (_v1_listed_in_l1, "not square"),
    # l_1 as long as V_2 but not inside g_1: no slot of level 1 holds it
    (_v2_listed_in_l1, "not in g_1"),
])
def test_misplaced_l1_fails_restricted_differentials(corrupt, word):
    rep = _corrupted_run("B3", corrupt, {"spencer"})
    rec = next(c for c in rep.checks if c.check_id == "restricted-differentials")
    assert rec.status == "FAIL"
    assert word in rec.values["error"]
    assert exit_code(rep) == 1


# corruptions whose bracket leaves g_{deg i + deg j} with a g_+ element
NON_ADDITIVE = {"_l1_bracket_hits_v0", "_v0_bracket_on_v1",
                "_g0_moves_v1_into_v2"}


def test_no_corruption_escapes_run():
    # every control under every group returns a report: no error of a
    # corrupted case escapes run
    tower_ids = {i for grp, ids, _ in verify.CHECKS
                 if grp in ("prolong", "spencer") for i in ids}
    failed = set()
    for label, corrupt, _ in NEGATIVE_CONTROLS.values():
        for group in verify.CHECK_GROUPS:
            rep = _corrupted_run(label, corrupt, {group})
            if corrupt.__name__ not in NON_ADDITIVE:
                continue
            for rec in rep.checks:
                if rec.check_id in tower_ids:
                    assert rec.status == "FAIL"
                    assert "not additive" in rec.values["error"]
                    failed.add((corrupt.__name__, rec.check_id))
    assert len(failed) == len(NON_ADDITIVE) * len(tower_ids)


def test_clean_report_emits_the_check_table_in_order():
    # run's zip(strict=True) ties the length of each suite to its ids
    rep = run("B3", {"all"}, seed=7)
    assert [c.check_id for c in rep.checks] == CHECK_IDS
    assert rep.status == "PASS"


# Corruptions that stop the case or its g from being built.  Each installer
# takes a setattr (monkeypatch.setattr, or the builtin in a subprocess).

def _cartan_term_in_h_row(set_attr):
    """The first stored [h_1, e_r] gains an h_2 term: ad of the contact
    grading element is no longer diagonal in the basis."""
    real = cases.chevalley_table

    def corrupted(rs):
        table = real(rs)
        key = min(k for k in table.brackets if k[0] == 0)
        table.brackets[key] = {**table.brackets[key], 1: 1}
        return table

    set_attr(cases, "chevalley_table", corrupted)


def _coroot_off_by_half(set_attr):
    """The first coefficient of theta^vee is off by 1/2: the contact grading
    element has a non-integer eigenvalue."""
    real = rootsys.RootSystem.coroot_coords

    def coroot_coords(rs, alpha):
        cor = real(rs, alpha)
        if tuple(alpha) != rs.highest_root:
            return cor
        return (cor[0] + Fraction(1, 2), *cor[1:])

    set_attr(rootsys.RootSystem, "coroot_coords", coroot_coords)


def _l0_moves_v0_on_e6(set_attr):
    set_attr(cases, "chevalley_table", _l0_moves_v0_table("E6"))


def _half_chevalley_constants(set_attr):
    """Every N(a, b) is 1/2, as in test_rootsys._half_constant_table."""
    set_attr(rootsys.ChevalleyConstants, "n", lambda self, a, b: Fraction(1, 2))


# fault -> (case, installer, a word of every record's error)
CONSTRUCTION_FAULTS = {
    "cartan-term": ("B3", _cartan_term_in_h_row, "not diagonal"),
    "coroot-off-by-half": ("B3", _coroot_off_by_half, "non-integer eigenvalue"),
    "l0-moves-v0": ("E6", _l0_moves_v0_on_e6, "line stabilizer disagrees"),
    "half-constant": ("B3", _half_chevalley_constants,
                      "not a nonzero integer"),
}


def _assert_every_record_fails(doc, word):
    assert doc["status"] == "FAIL" and doc["dims"] == {}
    assert [c["id"] for c in doc["checks"]] == CHECK_IDS
    for c in doc["checks"]:
        assert c["status"] == "FAIL"
        assert word in c["values"]["error"]


@pytest.mark.parametrize("fault", sorted(CONSTRUCTION_FAULTS))
def test_unbuildable_case_fails_every_record(fault, monkeypatch, capsys):
    # the error of the build is a FAIL record on every selected id, the two
    # every run records included, and verify exits 1 instead of raising
    label, install, word = CONSTRUCTION_FAULTS[fault]
    install(monkeypatch.setattr)
    assert main(["--case", label, "--checks", "all", "--format", "json"]) == 1
    _assert_every_record_fails(json.loads(capsys.readouterr().out), word)


@pytest.mark.parametrize("fault", sorted(CONSTRUCTION_FAULTS))
def test_unbuildable_case_fails_every_record_under_python_O(fault):
    # the guards must not be asserts, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_verifier import CONSTRUCTION_FAULTS",
        "from subadjoint.cli import main",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        f"label, install, _ = CONSTRUCTION_FAULTS[{fault!r}]",
        "install(setattr)",
        "sys.exit(main(['--case', label, '--checks', 'all', "
        "'--format', 'json']))",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 1, r.stderr
    _assert_every_record_fails(json.loads(r.stdout), CONSTRUCTION_FAULTS[fault][2])


def _drop_e_minus_alpha1(set_attr):
    """s's generators for `jacobi-ambient` without e_{-alpha_1}: the rest
    generate a proper parabolic subalgebra."""
    def gens(rs):
        full = chevalley_generators(rs)
        return full[:rs.rank] + full[rs.rank + 1:]
    set_attr(verify, "chevalley_generators", gens)


def _jacobi_ambient_record(doc):
    return next(c for c in doc["checks"] if c["id"] == "jacobi-ambient")


def test_non_generating_s_generators_fail_jacobi_ambient(monkeypatch, capsys):
    _drop_e_minus_alpha1(monkeypatch.setattr)
    assert main(["--case", "B3", "--checks", "jacobi", "--format", "json"]) == 1
    rec = _jacobi_ambient_record(json.loads(capsys.readouterr().out))
    assert rec["status"] == "FAIL"
    assert "do not generate" in rec["values"]["error"]


def test_non_generating_s_generators_fail_jacobi_ambient_under_python_O():
    # the generation check must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_verifier import _drop_e_minus_alpha1",
        "from subadjoint.cli import main",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "_drop_e_minus_alpha1(setattr)",
        "sys.exit(main(['--case', 'B3', '--checks', 'jacobi', "
        "'--format', 'json']))",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 1, r.stderr
    rec = _jacobi_ambient_record(json.loads(r.stdout))
    assert rec["status"] == "FAIL"
    assert "do not generate" in rec["values"]["error"]


@pytest.mark.parametrize("label", ["B3", "B4", "F4"])
def test_regauged_chevalley_basis_gives_identical_records(label, monkeypatch):
    # re-signing the root vectors gives another Chevalley basis of s: no
    # record may depend on the sign convention of the structure constants
    rs = build_root_system(label)
    shipped, regauged = chevalley_table(rs), oracles.regauged_table(rs, seed=7)
    assert shipped.brackets.keys() == regauged.brackets.keys()
    assert any(shipped.brackets[k] != regauged.brackets[k]
               for k in shipped.brackets)
    assert check_jacobi(regauged, chevalley_generators(rs)) == []
    want = emit(run(label, {"all"}, seed=7), fmt="json")
    monkeypatch.setattr(cases, "chevalley_table",
                        lambda rs: oracles.regauged_table(rs, seed=7))
    assert emit(run(label, {"all"}, seed=7), fmt="json") == want
