import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from subadjoint import cases
from subadjoint.cases import (
    CaseExcludedError,
    _exp_ad,
    _l_basis_vectors,
    _validate_case,
    build_case,
    check_xvv,
    fundamental_forms,
    highest_weight_roots_of_l1,
    sample_closed_orbit,
    symplectic_form,
)
from subadjoint.galg import build_g, verify_g_module_structure
from subadjoint.liecore import ConsistencyError
from subadjoint.linalg import (RrefBasis, SparseRationalMatrix, integer_inverse,
                               span)

from oracles import ii_value, iii_value


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
    assert Counter(b3.V_root_level.values()) == {0: 1, 1: 2, 2: 2, 3: 1}


def test_legendrian_dimension_count(b3, f4):
    for case in (b3, f4):
        assert case.dim_V == 2 * case.dim_l1 + 2


@pytest.mark.parametrize("label", ["A2", "A5", "C3", "C5"])
def test_excluded_labels(label):
    with pytest.raises(CaseExcludedError):
        build_case(label)


def test_g2_builds_the_twisted_cubic():
    # the registry, not build_case, keeps G2 out of a run
    assert build_case("G2").dim_V == 4


def test_e6_case_summary():
    case = build_case("E6")
    assert case.dim_V == 20 and case.dim_l1 == 9 and case.dim_l == 35
    assert [c.type_label for c in case.l_components] == ["A5"]


def test_embedding_weight_cI_is_three_halves(b3, f4):
    for case in (b3, f4):
        cI = sum(
            (case.embedding_weight_simple[i] for i in case.marked),
            Fraction(0),
        )
        assert cI == Fraction(3, 2)


def test_b3_embedding_weight_is_one_two(b3):
    # line x conic: degrees (1, 2) on the two A1 factors
    assert sorted(b3.embedding_weight) == [Fraction(1), Fraction(2)]


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
                    for w in range(len(forms.beta))
                )
                assert val == forms.III[a1][a2][a3]


def test_ii_vanishes_on_line_factor_b3(b3):
    forms = fundamental_forms(b3)
    dvals = {}
    for ci in range(len(b3.l_components)):
        m = [mm for mm in b3.marked if b3._node_comp[mm] == ci][0]
        dvals[ci] = b3.embedding_weight[m]
    line = next(ci for ci, d in dvals.items() if d == 1)
    line_idx = [i for i, r in enumerate(forms.l1_roots)
                if b3.ideal_of_root(r) == line]
    for a in line_idx:
        for b in line_idx:
            assert all(x == 0 for x in forms.II[a][b])


def test_grading_clipping(b3):
    s = b3.s_table
    v0 = b3.e(b3.v0_root)
    V3 = [b3.e(v) for v in b3.V_roots if b3.V_root_level[v] == 3]
    for r in b3.l1_roots():
        for w in V3:
            assert not s.bracket(b3.e(r), w)
    for r in b3.lminus1_roots():
        assert not s.bracket(b3.e(r), v0)


def test_b3_parabolic_stabilizer_dimension(b3):
    # the stabilizer of the v0 line in l is l_{-1} + l_0: dim 2 + 2
    p = [b3.e(r) for r in b3.l_roots if b3.l_degree[r] <= 0]
    p += [b3.coroot_vec(b) for b in b3.l_simple_roots]
    assert span(b3.s_table.dim, p).rank == 4
    s = b3.s_table
    v0 = b3.e(b3.v0_root)
    for vec in p:
        assert set(s.bracket(vec, v0)) <= {b3.root_index(b3.v0_root)}


def test_c_functional_values(b3):
    # [b, v0] = c(b) v0 on l_0, checked inside g; the functional is nonzero
    # somewhere on l_0 (v0 spans a weight line, not an l-fixed line)
    *_, (holds, detail) = verify_g_module_structure(build_g(b3))
    assert holds
    assert detail["nonzero_values"] > 0


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
    assert check_xvv(case, sample_closed_orbit(case, 10, seed=7)) == 0


def test_xvv_no_samples_inconclusive(b3):
    assert check_xvv(b3, []) == len(b3.lminus1_roots())


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
    with pytest.raises(ConsistencyError, match="outside the coroot span"):
        case.l_coords(case.coroot_vec(case.rs.highest_root))
    with pytest.raises(ConsistencyError, match="not a root of l"):
        case.l_coords(case.e(case.v0_root))


def test_l_coords_rejects_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import build_case",
        "from subadjoint.liecore import ConsistencyError",
        "case = build_case('D4')",
        "for v in (case.coroot_vec(case.rs.highest_root),",
        "          case.e(case.v0_root)):",
        "    try:",
        "        case.l_coords(v)",
        "    except ConsistencyError:",
        "        continue",
        "    sys.exit(f'{v} accepted as a vector of l')",
    ])
    assert r.returncode == 0, r.stderr


def test_swapped_osculating_levels_raise():
    case = build_case("B3")
    case.V_root_level = {v: {1: 2, 2: 1}.get(j, j)
                         for v, j in case.V_root_level.items()}
    with pytest.raises(ConsistencyError, match="bracket route disagrees"):
        _validate_case(case)


def test_swapped_osculating_levels_raise_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import _validate_case, build_case",
        "from subadjoint.liecore import ConsistencyError",
        "case = build_case('B3')",
        "case.V_root_level = {v: {1: 2, 2: 1}.get(j, j)",
        "                     for v, j in case.V_root_level.items()}",
        "try:",
        "    _validate_case(case)",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('swapped V_1, V_2 accepted')",
    ])
    assert r.returncode == 0, r.stderr


def test_swapped_l_degrees_fail_line_stabilizer():
    # an l_1 root and an l_{-1} root trade degrees: every dimension still
    # agrees, and the stabilizer of the v0 line is the first to disagree
    case = build_case("B3")
    a, b = case.l1_roots()[0], case.lminus1_roots()[0]
    case.l_degree[a], case.l_degree[b] = -1, 1
    with pytest.raises(ConsistencyError,
                       match="line stabilizer disagrees"):
        _validate_case(case)


def test_swapped_l_degrees_fail_line_stabilizer_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import _validate_case, build_case",
        "from subadjoint.liecore import ConsistencyError",
        "case = build_case('B3')",
        "a, b = case.l1_roots()[0], case.lminus1_roots()[0]",
        "case.l_degree[a], case.l_degree[b] = -1, 1",
        "try:",
        "    _validate_case(case)",
        "except ConsistencyError as e:",
        "    sys.exit(0 if 'line stabilizer disagrees' in str(e) else str(e))",
        "sys.exit('swapped l degrees accepted')",
    ])
    assert r.returncode == 0, r.stderr


def _l0_moves_v0_table(label):
    """A `chevalley_table` for `cases` to call: the real table with a
    spurious V_1 term added to [e_r, e_v0], r the first l_0 root of the
    case, so that l_0 moves the v0 line."""
    case = build_case(label)
    (i,), (j,) = case.e(case.l0_roots()[0]), case.e(case.v0_root)
    (w,) = case.e(next(v for v in case.V_roots if case.V_root_level[v] == 1))
    real = cases.chevalley_table

    def corrupted(rs):
        table = real(rs)
        vec = table.brackets.setdefault((min(i, j), max(i, j)), {})
        vec[w] = vec.get(w, 0) + 1
        return table

    return corrupted


@pytest.mark.parametrize("label", ["B4", "D5", "F4", "E6"])
def test_l0_moving_v0_fails_line_stabilizer(label, monkeypatch):
    # no other check of the case reads [l_0, v0]: the stabilizer of the v0
    # line is no longer l_{-1} + l_0
    monkeypatch.setattr(cases, "chevalley_table", _l0_moves_v0_table(label))
    with pytest.raises(ConsistencyError,
                       match="line stabilizer disagrees"):
        build_case(label)


def test_l0_moving_v0_fails_line_stabilizer_under_python_O():
    r = _run_under_O([
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_cases import _l0_moves_v0_table",
        "from subadjoint import cases",
        "from subadjoint.liecore import ConsistencyError",
        "cases.chevalley_table = _l0_moves_v0_table('E6')",
        "try:",
        "    cases.build_case('E6')",
        "except ConsistencyError as e:",
        "    sys.exit(0 if 'line stabilizer disagrees' in str(e) else str(e))",
        "sys.exit('l_0 moving the v0 line accepted')",
    ])
    assert r.returncode == 0, r.stderr


def test_non_nilpotent_exp_ad_raises(b3):
    # [h_b, e_b] = 2 e_b, so the exponential series never terminates
    b = b3.l_simple_roots[0]
    with pytest.raises(ConsistencyError, match="nilpotent"):
        _exp_ad(b3.s_table, b3.coroot_vec(b), b3.e(b))


def test_non_nilpotent_exp_ad_raises_under_python_O():
    r = _run_under_O([
        "from subadjoint.cases import _exp_ad, build_case",
        "from subadjoint.liecore import ConsistencyError",
        "case = build_case('B3')",
        "b = case.l_simple_roots[0]",
        "try:",
        "    _exp_ad(case.s_table, case.coroot_vec(b), case.e(b))",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('non-nilpotent ad f accepted')",
    ])
    assert r.returncode == 0, r.stderr


def _fraction_inverse(m):
    """Reference: the dense Fraction Gauss-Jordan inverse that the integer
    elimination replaced; raises on singular input."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def test_integer_inverse_matches_fraction_inverse():
    # the l Cartan inverse as integers over one denominator, with a row swap
    # (zero leading entry) among the inputs, and a singular matrix rejected
    for m in ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
              [[0, 1, 2], [1, 0, 3], [4, -3, 8]],
              [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
               [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]]):
        inv, den = integer_inverse(m)
        assert [[Fraction(x, den) for x in row] for row in inv] == _fraction_inverse(m)
        assert all(type(x) is int for row in inv for x in row)
        n = len(m)
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
                for row in m] == [[den * int(i == j) for j in range(n)]
                                  for i in range(n)]
    with pytest.raises(ValueError, match="singular"):
        integer_inverse([[1, 2], [2, 4]])
