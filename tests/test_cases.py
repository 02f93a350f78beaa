import subprocess
import sys
from fractions import Fraction

import pytest

from subadjoint.cases import (
    CaseConsistencyError,
    CaseExcludedError,
    _exp_ad,
    _l_basis_vectors,
    _validate_case,
    build_case,
    check_xvv,
    fundamental_forms,
    highest_weight_roots_of_l1,
    ii_value,
    iii_value,
    sample_closed_orbit,
    symplectic_form,
)
from subadjoint.linalg import RrefBasis, SparseRationalMatrix


@pytest.fixture(scope="module")
def b3():
    return build_case("B3")


@pytest.fixture(scope="module")
def f4():
    return build_case("F4")


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_case_data_and_forms_are_int(label):
    case = build_case(label)
    vals = []
    for r in case.rs.all_roots():
        vals += case.e(r).values()
        vals += case.coroot_vec(r).values()
    for sp in [*case.V_decomp.values(), *case.l_grading.values(), case.V]:
        for vec in sp.basis_vectors():
            vals += vec.values()
    vals += [x for row in symplectic_form(case) for x in row]
    forms = fundamental_forms(case)
    vals += [x for rows in forms.II for row in rows for x in row]
    vals += [x for rows in forms.III for row in rows for x in row]
    vals += [x for row in forms.beta for x in row]
    assert vals and all(type(v) is int for v in vals)


def test_b3_dimensions(b3):
    assert b3.dim_V == 6
    assert b3.dim_l1 == 2
    assert b3.dim_l == 6
    assert {j: s.dim for j, s in b3.V_decomp.items()} == {0: 1, 1: 2, 2: 2, 3: 1}


def test_legendrian_dimension_count(b3, f4):
    for case in (b3, f4):
        assert case.dim_V == 2 * case.dim_l1 + 2


@pytest.mark.parametrize("label", ["G2", "A2", "A5", "C3", "C5"])
def test_excluded_labels(label):
    with pytest.raises(CaseExcludedError):
        build_case(label)


def test_e6_case_summary():
    case = build_case("E6")
    assert case.dim_V == 20 and case.dim_l1 == 9 and case.dim_l == 35
    assert [c.type_label for c in case.l_components] == ["A5"]


def test_embedding_weight_cI_is_three_halves(b3, f4):
    for case in (b3, f4):
        cI = sum(
            (case.embedding_weight_simple.coords[i] for i in case.marked),
            Fraction(0),
        )
        assert cI == Fraction(3, 2)


def test_b3_embedding_weight_is_one_two(b3):
    # line x conic: degrees (1, 2) on the two A1 factors
    assert sorted(b3.embedding_weight.coords) == [Fraction(1), Fraction(2)]


def test_symplectic_form(b3):
    sig = symplectic_form(b3)
    n = len(sig)
    assert all(sig[i][j] == -sig[j][i] for i in range(n) for j in range(n))
    assert SparseRationalMatrix.from_dense(sig).det() != 0
    i0 = b3.V_roots.index(b3.v0_root)
    for j, v in enumerate(b3.V_roots):
        if b3.V_root_level[v] <= 2:
            assert sig[i0][j] == 0
        else:
            assert sig[i0][j] != 0


def test_sigma_vanishes_on_tangent_space(b3):
    # sigma(v0, [a, v0]) = 0 for all a in l_1
    s = b3.s_table
    theta_idx = b3.root_index(b3.rs.highest_root)
    v0 = b3.e(b3.v0_root)
    for a in b3.l1_roots():
        tangent = s.bracket(b3.e(a), v0)
        pairing = s.bracket(v0, tangent)
        assert pairing.get(theta_idx, Fraction(0)) == 0


def test_fundamental_forms_symmetry_and_nondegeneracy(b3, f4):
    for case in (b3, f4):
        forms = fundamental_forms(case)
        d = forms.dim
        for a in range(d):
            for b in range(d):
                assert forms.II[a][b] == forms.II[b][a]
                for c in range(d):
                    assert forms.III[a][b][c] == forms.III[b][a][c]
                    assert forms.III[a][b][c] == forms.III[a][c][b]
        rows = []
        for b in range(d):
            for c in range(d):
                row = {a: forms.III[a][b][c] for a in range(d)
                       if forms.III[a][b][c]}
                if row:
                    rows.append(row)
        assert SparseRationalMatrix.from_rows(rows, d).kernel() == []


def test_f4_beta_is_6x6_nondegenerate(f4):
    forms = fundamental_forms(f4)
    assert len(forms.beta) == 6 and len(forms.beta[0]) == 6
    assert SparseRationalMatrix.from_dense(forms.beta).det() != 0


def test_beta_compatibility_with_iii(b3):
    forms = fundamental_forms(b3)
    d = forms.dim
    for a1 in range(d):
        for a2 in range(d):
            for a3 in range(d):
                val = sum(
                    forms.II[a2][a3][w] * forms.beta[w][a1]
                    for w in range(len(forms.V2_roots))
                )
                assert val == forms.III[a1][a2][a3]


def test_ii_vanishes_on_line_factor_b3(b3):
    forms = fundamental_forms(b3)
    dvals = {}
    for ci in range(len(b3.l_components)):
        m = [mm for mm in b3.marked if b3._node_comp[mm] == ci][0]
        dvals[ci] = b3.embedding_weight.coords[m]
    line = next(ci for ci, d in dvals.items() if d == 1)
    line_idx = [i for i, r in enumerate(forms.l1_roots)
                if b3.ideal_of_root(r) == line]
    for a in line_idx:
        for b in line_idx:
            assert all(x == 0 for x in forms.II[a][b])


def test_grading_clipping(b3):
    s = b3.s_table
    v0 = b3.e(b3.v0_root)
    for r in b3.l1_roots():
        for w in b3.V_decomp[3].basis_vectors():
            assert not s.bracket(b3.e(r), w)
    for r in b3.lminus1_roots():
        assert not s.bracket(b3.e(r), v0)


def test_b3_parabolic_stabilizer_dimension(b3):
    # the stabilizer of the v0 line in l is l_{-1} + l_0: dim 2 + 2
    p = b3.l_grading[-1].span_with(b3.l_grading[0])
    assert p.dim == 4
    s = b3.s_table
    v0 = b3.e(b3.v0_root)
    for vec in p.basis_vectors():
        assert set(s.bracket(vec, v0)) <= {b3.v0_index}


def test_c_functional_values(b3):
    # [b, v0] = c(b) v0 was asserted during construction; the functional is
    # nonzero somewhere on l_0 (v0 spans a weight line, not an l-fixed line)
    assert any(b3.c_functional.values())


def test_sampling_first_point_is_highest_weight_vector(b3):
    samples = sample_closed_orbit(b3, 1, seed=99)
    hw = highest_weight_roots_of_l1(b3)
    assert len(samples) == len(hw)
    for vec, root in zip(samples, hw):
        assert vec == b3.e(root)


def test_sampling_reproducible(b3, f4):
    a = sample_closed_orbit(b3, 5, seed=3)
    b = sample_closed_orbit(b3, 5, seed=3)
    assert a == b
    # B3 has no lowering operators in l_0 (product of A1 ideals), so its
    # orbit cone per ideal is a line; F4 has genuine unipotent directions
    a = sample_closed_orbit(f4, 5, seed=3)
    b = sample_closed_orbit(f4, 5, seed=3)
    c = sample_closed_orbit(f4, 5, seed=4)
    assert a == b
    assert a != c


def test_samples_lie_on_cubic_base_locus(b3, f4):
    for case in (b3, f4):
        forms = fundamental_forms(case)
        for b in sample_closed_orbit(case, 6, seed=1):
            assert iii_value(case, forms, b) == 0


def test_samples_ii_null_in_non_surface_cases(f4):
    forms = fundamental_forms(f4)
    for b in sample_closed_orbit(f4, 6, seed=1):
        assert all(x == 0 for x in ii_value(f4, forms, b))


def test_samples_span_each_summand(b3):
    samples = sample_closed_orbit(b3, 3, seed=5)
    hw = highest_weight_roots_of_l1(b3)
    per = len(samples) // len(hw)
    for ci in range(len(hw)):
        want = sum(1 for r in b3.l1_roots() if b3.ideal_of_root(r) == ci)
        acc = RrefBasis(b3.s_table.dim)
        for vec in samples[ci * per : (ci + 1) * per]:
            acc.add(vec)
        assert acc.rank == want


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_xvv_certificate_passes(label):
    case = build_case(label)
    cert = check_xvv(case, sample_closed_orbit(case, 10, seed=7))
    assert cert.status == "PASS"
    assert cert.kernel_dim == 0


def test_xvv_no_samples_inconclusive(b3):
    cert = check_xvv(b3, [])
    assert cert.status == "INCONCLUSIVE"
    assert cert.kernel_dim == len(b3.lminus1_roots())


def _run_under_O(lines):
    script = "\n".join([
        "import sys",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        *lines,
    ])
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("label", ["B3", "D4", "F4", "E6"])
def test_l_coords(label):
    case = build_case(label)
    for i, v in enumerate(_l_basis_vectors(case)):
        assert case.l_coords(v) == {i: Fraction(1)}
    # theta^vee spans the centre of s_0, outside l; V is outside l
    with pytest.raises(ValueError):
        case.l_coords(case.coroot_vec(case.rs.highest_root))
    with pytest.raises(ValueError):
        case.l_coords(case.e(case.v0_root))


def test_l_coords_rejects_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import build_case",
        "case = build_case('D4')",
        "for v in (case.coroot_vec(case.rs.highest_root),",
        "          case.e(case.v0_root)):",
        "    try:",
        "        case.l_coords(v)",
        "    except ValueError:",
        "        continue",
        "    sys.exit(f'{v} accepted as a vector of l')",
    ])
    assert r.returncode == 0, r.stderr


def test_swapped_osculating_levels_raise():
    case = build_case("B3")
    case.V_decomp[1], case.V_decomp[2] = case.V_decomp[2], case.V_decomp[1]
    with pytest.raises(CaseConsistencyError):
        _validate_case(case)


def test_swapped_osculating_levels_raise_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import (",
        "    CaseConsistencyError, _validate_case, build_case)",
        "case = build_case('B3')",
        "case.V_decomp[1], case.V_decomp[2] = case.V_decomp[2], case.V_decomp[1]",
        "try:",
        "    _validate_case(case)",
        "except CaseConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('swapped V_1, V_2 accepted')",
    ])
    assert r.returncode == 0, r.stderr


def test_non_nilpotent_exp_ad_raises(b3):
    # [h_b, e_b] = 2 e_b, so the exponential series never terminates
    b = b3.l_simple_roots[0]
    with pytest.raises(CaseConsistencyError, match="nilpotent"):
        _exp_ad(b3.s_table, b3.coroot_vec(b), b3.e(b))


def test_non_nilpotent_exp_ad_raises_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import CaseConsistencyError, _exp_ad, build_case",
        "case = build_case('B3')",
        "b = case.l_simple_roots[0]",
        "try:",
        "    _exp_ad(case.s_table, case.coroot_vec(b), case.e(b))",
        "except CaseConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('non-nilpotent ad f accepted')",
    ])
    assert r.returncode == 0, r.stderr
