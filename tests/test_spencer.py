from fractions import Fraction
from math import comb

import subprocess
import sys
from pathlib import Path

import pytest

from subadjoint.cases import build_case
from subadjoint.galg import build_g
from subadjoint.spencer import (
    c1_vector_of_ad,
    cI_set,
    conjugation_expansion_check,
    expected_cI,
    g_basis_cI,
    hom_decomposition,
    partial_prime_checks,
    q_dimension,
    rk_allowed_extra,
    rk_designated,
    spencer_differential,
    spencer_spaces,
    summand_cI_table,
)


@pytest.fixture(scope="module")
def b3():
    case = build_case("B3")
    return case, build_g(case)


@pytest.fixture(scope="module")
def f4():
    case = build_case("F4")
    return case, build_g(case)


def test_b3_cochain_dims(b3):
    case, g = b3
    sp = spencer_spaces(g, -1)
    # 4*4 + 2*4 + 1*2
    assert sp.dim_C1 == 26
    assert sp.dim_C2 == 45


def test_cochains_vanish_below_minus_six(b3):
    case, g = b3
    for k in (-7, -8, -9):
        assert spencer_spaces(g, k).dim_C2 == 0


def test_ad_images_are_cocycles(b3):
    case, g = b3
    mat, sp = spencer_differential(g, -1)
    for x in [i for i, d in enumerate(g.degree) if d == -1]:
        f = c1_vector_of_ad(g, x, sp)
        for row in mat.rows:
            val = sum(
                row.get(j, Fraction(0)) * f.get(j, Fraction(0))
                for j in set(row) | set(f)
            )
            assert val == 0


def test_rank_and_qdim_b3(b3):
    case, g = b3
    q = q_dimension(g, -1)
    # kernel of del on C^{-1,1} is exactly the first prolongation (dim 2)
    assert q.dim_C1 == 26
    assert q.rank == 26 - 2 == q.expected_rank(2)
    assert q.value == 45 - 24
    for k in range(-7, 0):
        qk = q_dimension(g, k)
        assert 0 <= qk.value <= qk.dim_C2
    assert q_dimension(g, -7).value == 0


def test_decomposition_closure(b3, f4):
    for case, g in (b3, f4):
        for k in range(-7, 0):
            desc = hom_decomposition(case, g, k)
            assert sum(d.dim for d in desc) == spencer_spaces(g, k).dim_C2
            # weight multiplicities add up piece by piece
            assert all(len(d.weight_list) == d.dim for d in desc)


def test_lambda2_v2_to_v3_piece(b3):
    case, g = b3
    desc = hom_decomposition(case, g, -1)
    piece = [d for d in desc if d.family == 6 and d.index == (2, 2)]
    assert len(piece) == 1
    assert piece[0].dim == comb(2, 2) == 1  # C(dim V2, 2) * dim V3
    assert rk_allowed_extra(-1, 6, (2, 2))
    assert not rk_designated(-1, 6, (2, 2))


def test_cI_set_recomputation(b3):
    case, g = b3
    desc = hom_decomposition(case, g, -2)
    for d in desc:
        if d.dim:
            assert cI_set(d, case) == set(d.cI_values)


def test_component_cI_values(b3):
    case, g = b3
    cIs = g_basis_cI(g)
    assert {cIs[i] for i in g.l1_indices} == {Fraction(1)}
    assert {cIs[i] for i in g.lminus1_indices} == {Fraction(-1)}
    for j in range(4):
        got = {cIs[i] for i in g.V_level_indices[j]}
        assert got == {Fraction(j) - Fraction(3, 2)}


@pytest.mark.parametrize("k", range(-7, 0))
def test_summand_table_all_k(b3, k):
    case, g = b3
    tab = summand_cI_table(case, g, k)
    assert tab.status == "PASS", tab.offending


def test_expected_cI_table_shape():
    # the six displayed values at each level
    for k in range(-7, 0):
        vals = [expected_cI(f, k) for f in (1, 2, 4, 3, 6, 5)]
        assert vals == [
            Fraction(k) - Fraction(3, 2),
            Fraction(k),
            Fraction(k),
            Fraction(k) + Fraction(3, 2),
            Fraction(k) + Fraction(3, 2),
            Fraction(k) + 3,
        ]


def test_k_minus_3_is_designated_whole_family(b3):
    case, g = b3
    tab = summand_cI_table(case, g, -3)
    fives = [d for d in tab.descriptors if d.family == 5 and d.dim > 0]
    assert fives and all(set(d.cI_values) == {Fraction(0)} for d in fives)
    assert all(rk_designated(-3, 5, d.index) for d in fives)


def test_k_minus_4_has_no_nonnegative_summand(b3):
    case, g = b3
    desc = hom_decomposition(case, g, -4)
    for d in desc:
        if d.dim:
            assert max(d.cI_values) < 0


def test_partial_differentials_b3(b3):
    case, g = b3
    rep = partial_prime_checks(case, g)
    assert rep.dim_hom == 4
    assert rep.dim_target_prime == 1
    assert rep.rank_prime == 1
    assert rep.nullity_doubleprime == 0
    assert rep.pairing_nondegenerate
    assert rep.status == "PASS"


def test_conjugation_expansion(b3, f4):
    for case, g in (b3, f4):
        rep = conjugation_expansion_check(g, trials=6, seed=4)
        assert rep.status == "PASS"


def _b3_without_v3():
    case = build_case("B3")
    g = build_g(case)
    g.V_level_indices = {**g.V_level_indices, 3: ()}
    return case, g


def test_closure_detects_missing_piece():
    case, g = _b3_without_v3()
    tab = summand_cI_table(case, g, -1)
    assert not tab.closure_ok
    assert tab.status == "FAIL"


def test_closure_detects_missing_piece_under_python_O():
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_spencer import _b3_without_v3",
        "from subadjoint.spencer import summand_cI_table",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "case, g = _b3_without_v3()",
        "tab = summand_cI_table(case, g, -1)",
        "sys.exit(0 if tab.status == 'FAIL' else 'lost V_3 pieces accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
