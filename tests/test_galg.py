from fractions import Fraction

import pytest

from subadjoint.cases import build_case
from subadjoint.galg import (
    build_g,
    g_jacobi_violations,
    verify_g_module_structure,
    verify_structure_identities,
)


@pytest.fixture(scope="module")
def gb3():
    return build_g(build_case("B3"))


@pytest.fixture(scope="module")
def gd5():
    return build_g(build_case("D5"))


def test_b3_component_dims(gb3):
    assert gb3.component_dims() == {-1: 2, 0: 4, 1: 4, 2: 2, 3: 1}
    assert gb3.table.dim == 13  # 1 + dim l + dim V


def test_d5_component_dims(gd5):
    assert gd5.component_dims() == {-1: 5, 0: 10, 1: 10, 2: 5, 3: 1}
    assert gd5.table.dim == 31


def test_g_jacobi(gb3, gd5):
    assert g_jacobi_violations(gb3) == []
    assert g_jacobi_violations(gd5) == []


def test_v_is_abelian_ideal(gb3):
    t = gb3.table
    vidx = range(gb3.v_offset, t.dim)
    for i in vidx:
        for j in vidx:
            assert not t.bracket_basis(i, j)


def test_id_acts_as_identity_on_v_and_zero_on_l(gb3):
    t = gb3.table
    for j in range(1, t.dim):
        b = t.bracket_basis(gb3.id_index, j)
        if j >= gb3.v_offset:
            assert b == {j: Fraction(1)}
        else:
            assert not b


def test_degree_additivity_and_top_clipping(gb3):
    t = gb3.table
    for (i, j), vec in t.brackets.items():
        for k in vec:
            assert gb3.degree[k] == gb3.degree[i] + gb3.degree[j]
    # [g_2, g_3] = 0: degree 5 is absent
    g2 = [i for i, d in enumerate(gb3.degree) if d == 2]
    g3 = [i for i, d in enumerate(gb3.degree) if d == 3]
    for i in g2:
        for j in g3:
            assert not t.bracket_basis(i, j)


def test_dot_action_is_bracket(gb3):
    # a . v0 realized as the bracket [a, v0] lands in V_1
    t = gb3.table
    v1 = set(gb3.V_level_indices[1])
    for a in gb3.l1_indices:
        img = t.bracket_basis(a, gb3.v0_index)
        assert img and set(img) <= v1


def test_operator_a(gb3):
    # A = ad(v0) kills V and moves Id to -v0; A^2 = 0 and the level shift
    # are the identity-a-* records
    A = gb3.table.ad_columns({gb3.v0_index: 1})
    for j in range(gb3.v_offset, gb3.table.dim):
        assert not A[j]
    assert A[gb3.id_index] == {gb3.v0_index: Fraction(-1)}


@pytest.mark.parametrize("label", ["B3", "B4", "D4", "F4"])
def test_identity_suite_passes(label):
    g = build_g(build_case(label))
    suites = verify_structure_identities(g) + verify_g_module_structure(g)
    assert len(suites) == 9
    for n, (holds, detail) in enumerate(suites):
        assert holds, (label, n, detail)


def test_identity_checks_detect_corruption(gd5):
    # breaking one structure constant must surface in the Jacobi scan
    g = build_g(build_case("D5"))
    key = next(iter(g.table.brackets))
    tgt = next(iter(g.table.brackets[key]))
    g.table.brackets[key][tgt] += 1
    assert g_jacobi_violations(g) != []
