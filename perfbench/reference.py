"""Reference answers for the verifier benchmark, from the classical formulas.

Every active case is a subadjoint variety Z = L/P sitting in the contact
component of a simple Lie algebra s.  The verifier builds

    g = (C Id_V + l) |x V,   g = g_{-1} + g_0 + g_1 + g_2 + g_3,

with V the degree-1 contact component, dim V = 2 dim l_1 + 2, and
V = V_0 + V_1 + V_2 + V_3 of dimensions 1, dim l_1, dim l_1, 1.  The table
below is written from the classical description of each case, not read from
the package under test, so a change that breaks a dimension in the package
cannot also change the answer it is compared with.

The paper's answer for every check id is PASS.  A reported check is *wrong*
when its status is FAIL or one of its key dimensions differs from the value
here, and *undecided* when its status is SKIPPED or INCONCLUSIVE.
"""

from __future__ import annotations

from math import comb


def _orthogonal(series: str, rank: int) -> dict:
    # s = so(m + 4), l = sl2 + so(m), V = C^2 (x) C^m, Z = P^1 x Q^{m-2}
    m = 2 * rank - 3 if series == "B" else 2 * rank - 4
    so_m = {3: ("A1",), 4: ("A1", "A1"), 6: ("A3",)}.get(m)
    if so_m is None:
        so_m = (f"B{(m - 1) // 2}",) if m % 2 else (f"D{m // 2}",)
    return {"V": 2 * m, "l1": m - 1, "l": 3 + m * (m - 1) // 2,
            "factors": ("A1",) + so_m}


# (dim V, dim l_1 = dim Z, dim l, factor types of l)
_EXCEPTIONAL = {
    "F4": (14, 6, 21, ("C3",)),    # LG(3,6) in P(V), V = L^3_0 C^6, l = sp6
    "E6": (20, 9, 35, ("A5",)),    # Gr(3,6) in P(L^3 C^6), l = sl6
    "E7": (32, 15, 66, ("D6",)),   # spinor variety S6, V = half-spin, l = so12
    "E8": (56, 27, 133, ("E7",)),  # E7/P7 in P(V_56), l = e7
}


def case_answers(case_id: str) -> dict:
    """Expected dimensions for one case id (B3..B8, D4..D8, F4, E6..E8)."""
    if case_id in _EXCEPTIONAL:
        v, d1, dl, factors = _EXCEPTIONAL[case_id]
        base = {"V": v, "l1": d1, "l": dl, "factors": factors}
    else:
        base = _orthogonal(case_id[0], int(case_id[1:]))
    d1, dl = base["l1"], base["l"]
    g = (d1, 2 + dl - 2 * d1, 2 * d1, d1, 1)
    return {
        **base,
        "V_levels": (1, d1, d1, 1),
        "g": g,
        # contact grading of s: s_0 = C + l, s_{+-1} = V, s_{+-2} = lines
        "s_components": {-2: 1, -1: base["V"], 0: dl + 1, 1: base["V"], 2: 1},
        "p_minus_1": d1,
        "p_minus_2": 0,
        "witness_rank": d1,
        "rank_prime": comb(d1, 2),
        "nullity_doubleprime": 0,
    }


REFERENCE = {
    cid: case_answers(cid)
    for cid in ("B3", "B4", "B5", "B6", "B7", "B8", "D4", "D5", "D6", "D7",
                "D8", "F4", "E6", "E7", "E8")
}


def expected_check_dims(ans: dict) -> dict:
    """Key dims per check id, in the report's JSON form."""
    d1 = ans["l1"]
    g = {str(k): v for k, v in zip(range(-1, 4), ans["g"])}
    return {
        "case-dims": {"V": ans["V"], "l1": d1, "l": ans["l"],
                      "V_levels": list(ans["V_levels"]), "g": list(ans["g"]),
                      "factors": sorted(ans["factors"])},
        "contact-grading": {"s_components": {str(k): v for k, v in
                                             ans["s_components"].items()}},
        "fundamental-forms": {"l1": d1, "iii_kernel": 0},
        "xvv-kernel": {"kernel": 0},
        "g-dims": {"components": g},
        "prolong-dims": {"p_minus_1": ans["p_minus_1"],
                         "p_minus_2": ans["p_minus_2"], "expected_p1": d1},
        "prolong-ad-witnesses": {"witness_rank": ans["witness_rank"],
                                 "dim_g_minus_1": d1},
        "restricted-differentials": {
            "dim_hom_V2_l1": d1 * d1, "rank_prime": ans["rank_prime"],
            "target_prime": ans["rank_prime"],
            "nullity_doubleprime": ans["nullity_doubleprime"]},
    }


def score_report(report: dict, reference: dict = REFERENCE) -> dict:
    """Compare one case report (parsed JSON) with the reference answers.

    Returns the number of checks reported, how many are wrong or undecided,
    and a list of (case, check, key, got, want) for every dimension that
    disagrees.
    """
    case_id, checks = report.get("case"), report.get("checks", [])
    if case_id not in reference:
        return {"checks": len(checks), "wrong": len(checks), "undecided": 0,
                "mismatches": [(case_id, None, "case", case_id, None)]}
    want = expected_check_dims(reference[case_id])
    wrong = undecided = 0
    mismatches = []
    for chk in checks:
        cid, status = chk.get("id"), chk.get("status")
        if status in ("SKIPPED", "INCONCLUSIVE"):
            # an undecided check reports no dims, or only bounds
            undecided += 1
            continue
        bad = status != "PASS"
        for key, value in want.get(cid, {}).items():
            got = chk.get("dims", {}).get(key)
            if key == "factors" and isinstance(got, list):
                got = sorted(got)
            if got != value:
                bad = True
                mismatches.append((case_id, cid, key, got, value))
        wrong += bad
    return {"checks": len(checks), "wrong": wrong, "undecided": undecided,
            "mismatches": mismatches}
