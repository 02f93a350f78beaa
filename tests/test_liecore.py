import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from subadjoint.liecore import (
    ConsistencyError,
    LieAlgebraTable,
    bracket_index,
    check_jacobi,
    contact_grading,
    grade_by_element,
    line_stabilizer,
)
from subadjoint.cases import build_case
from subadjoint.galg import build_g
from subadjoint.linalg import span, vec_add_scaled
from subadjoint.rootsys import build_root_system, chevalley_table

from oracles import bracket_additivity_violations


def _abelian(n):
    return LieAlgebraTable(dim=n, labels=tuple(f"x{i}" for i in range(n)),
                           brackets={})


def test_jacobi_abelian():
    assert check_jacobi(_abelian(5)) == []


@pytest.mark.parametrize("label", ["B3", "G2", "E6"])
def test_bracket_index_contract(label):
    t = chevalley_table(build_root_system(label))
    ad, terms = bracket_index(t)
    n = t.dim
    # ad holds exactly the nonzero basis brackets, in both orders
    nonzero = {(i, j) for i in range(n) for j in range(n) if t.bracket_basis(i, j)}
    assert {(i, j) for i in range(n) for j in ad[i]} == nonzero
    for i, j in nonzero:
        assert ad[i][j] == t.bracket_basis(i, j)
    # terms[k] lists (i, j, [e_i, e_j]_k) over i < j, each once
    want = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k, c in t.bracket_basis(i, j).items():
                want[k].append((i, j, c))
    assert [sorted(row) for row in terms] == want


def _jacobi_all_triples(L):
    """Reference scan: bracket every one of the C(n, 3) basis triples."""
    out = []
    for a, b, c in combinations(range(L.dim), 3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            vec_add_scaled(total, L.bracket(L.bracket_basis(x, y),
                                            {z: Fraction(1)}), Fraction(1))
        if total:
            out.append((a, b, c))
    return out


def _jacobi_table(name):
    """A fresh copy of the table plus one bracket key per corruption site."""
    if name.startswith("g-"):
        g = build_g(build_case(name[2:]))
        t = g.table
        cartan = {g.l_offset + i for i, key in enumerate(g.l_basis_keys)
                  if key[0] == "h"}
        l_roots = set(range(g.l_offset, g.v_offset)) - cartan
        V = set(range(g.v_offset, t.dim))
        sites = {
            "id-v": min(k for k in t.brackets if k[0] == g.id_index),
            "l-V": min(k for k in t.brackets
                       if k[0] in l_roots and k[1] in V),
        }
    else:
        t = chevalley_table(build_root_system(name))
        cartan = set(range(build_root_system(name).rank))
        l_roots = set(range(t.dim)) - cartan
        sites = {}
    sites["cartan"] = min(k for k in t.brackets
                          if k[0] in cartan and k[1] in l_roots)
    t = LieAlgebraTable(t.dim, t.labels,
                        {k: dict(v) for k, v in t.brackets.items()})
    return t, sites


_G_SITES = ("cartan", "id-v", "l-V", "seeded", "zeroed")
_JACOBI_CONTROLS = [
    (name, site)
    for name, sites in (("A2", ("cartan",)), ("B3", ("cartan",)),
                        ("G2", ("cartan",)),
                        ("g-B3", _G_SITES), ("g-D4", _G_SITES),
                        ("g-F4", _G_SITES), ("g-E6", _G_SITES))
    for site in ("clean",) + sites
]


@pytest.mark.parametrize("name,site", _JACOBI_CONTROLS)
def test_jacobi_scan_matches_all_triples(name, site):
    t, sites = _jacobi_table(name)
    if site in ("seeded", "zeroed"):
        # one seeded entry: bumped, or set to an explicit zero
        rng = random.Random(f"{name}-{site}")
        vec = t.brackets[rng.choice(sorted(k for k, v in t.brackets.items() if v))]
        m = rng.choice(sorted(vec))
        vec[m] = 0 if site == "zeroed" else vec[m] + rng.choice([-2, -1, 1, 2])
    elif site != "clean":
        vec = t.brackets[sites[site]]
        vec[min(vec)] += 1
    want = _jacobi_all_triples(t)
    assert check_jacobi(t) == want
    assert (want == []) == (site == "clean")


def test_jacobi_scan_memory_is_per_index():
    # the products are accumulated one smallest index at a time, so the
    # sums of only one index's triples are held at once
    t = build_case("E6").s_table
    tracemalloc.start()
    try:
        assert check_jacobi(t) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_grade_by_element_sl2():
    t = chevalley_table(build_root_system("A1"))
    g = grade_by_element(t, {0: Fraction(1)})
    assert g.dims() == {-2: 1, 0: 1, 2: 1}
    assert g.degree == {0: 0, 1: 2, 2: -2}


def test_grade_by_zero_element():
    t = chevalley_table(build_root_system("A2"))
    g = grade_by_element(t, {})
    assert g.dims() == {0: t.dim}


def test_grade_by_non_integer_rejected():
    # ad(h/3) on sl2 has eigenvalues +-2/3
    t = chevalley_table(build_root_system("A1"))
    with pytest.raises(ConsistencyError, match="non-integer eigenvalue"):
        grade_by_element(t, {0: Fraction(1, 3)})


@pytest.mark.parametrize("h", [{1: 1}, {1: 1, 2: 1}],
                         ids=["e_alpha", "e_alpha+e_-alpha"])
def test_grade_by_non_diagonal_element_rejected(h):
    # ad(e_alpha) on sl2 is nilpotent; ad(e_alpha + e_-alpha) is
    # diagonalizable with eigenvalues -2, 0, 2, but not in the Chevalley
    # basis, and only gradings diagonal in the basis are built
    t = chevalley_table(build_root_system("A1"))
    with pytest.raises(ConsistencyError, match="not diagonal"):
        grade_by_element(t, h)


def test_f4_highest_coroot_grading():
    rs = build_root_system("F4")
    t = chevalley_table(rs)
    cor = rs.coroot_coords(rs.highest_root)
    h = {i: Fraction(c) for i, c in enumerate(cor) if c}
    g = grade_by_element(t, h)
    assert g.dims() == {-2: 1, -1: 14, 0: 22, 1: 14, 2: 1}


@pytest.mark.parametrize("label,s1", [("B3", 6), ("F4", 14), ("E8", 56)])
def test_contact_grading_dims(label, s1):
    rs = build_root_system(label)
    t = chevalley_table(rs)
    g = contact_grading(t, rs)
    dims = g.dims()
    assert dims[1] == dims[-1] == s1
    assert dims[2] == dims[-2] == 1
    assert sum(dims.values()) == t.dim


def test_contact_grading_additive():
    rs = build_root_system("B3")
    t = chevalley_table(rs)
    g = contact_grading(t, rs)
    assert bracket_additivity_violations(t, g) == []


def _b3_table_with_plane_top():
    """The B3 table with one [h_i, e_beta] constant bumped so that the root
    vector e_beta moves from degree 1 to degree 2 of the contact grading."""
    rs = build_root_system("B3")
    t = chevalley_table(rs)
    cor = rs.coroot_coords(rs.highest_root)
    h = {i: Fraction(c) for i, c in enumerate(cor) if c}
    i = min(h)
    j = next(j for j in range(rs.rank, t.dim)
             if t.bracket(h, {j: Fraction(1)}) == {j: Fraction(1)})
    t.brackets[(i, j)] = {j: t.brackets[(i, j)][j] + 1 / h[i]}
    return t, rs


def test_contact_grading_rejects_plane_extremes():
    t, rs = _b3_table_with_plane_top()
    with pytest.raises(ConsistencyError, match="lines"):
        contact_grading(t, rs)


def test_contact_grading_rejects_plane_extremes_under_python_O():
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_liecore import _b3_table_with_plane_top",
        "from subadjoint.liecore import ConsistencyError, contact_grading",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        "    contact_grading(*_b3_table_with_plane_top())",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('two-dimensional extreme component accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_grading_component_dims_sum():
    rs = build_root_system("D4")
    t = chevalley_table(rs)
    g = contact_grading(t, rs)
    assert sorted(g.degree) == list(range(t.dim))
    assert sum(g.dims().values()) == t.dim


def test_line_stabilizer_sl2_adjoint():
    t = chevalley_table(build_root_system("A1"))
    # highest weight vector of the adjoint module: e
    stab = line_stabilizer(t, [{i: 1} for i in range(t.dim)], {1: Fraction(1)})
    assert stab.rank == 2
    assert stab.contains({1: Fraction(1)})   # e
    assert stab.contains({0: Fraction(1)})   # h
    assert not stab.contains({2: Fraction(1)})  # f moves the line


def test_line_stabilizer_zero_vector():
    t = chevalley_table(build_root_system("A2"))
    stab = line_stabilizer(t, [{i: 1} for i in range(t.dim)], {})
    assert stab.rank == t.dim


def test_line_stabilizer_inside_a2_borel():
    # basis h1, h2, e_a2, e_a1, e_a1+a2, then the negative root vectors
    t = chevalley_table(build_root_system("A2"))
    assert t.labels[2:5] == ("e+0+1", "e+1+0", "e+1+1")
    borel = [{i: 1} for i in range(5)]
    # the highest root vector spans a line the whole Borel keeps
    assert line_stabilizer(t, borel, {4: 1}).rank == 5
    # e_a2 moves the e_a1 line to e_a1+a2; the rest of the Borel keeps it
    stab = line_stabilizer(t, borel, {3: 1})
    assert stab.rank == 4
    assert not stab.contains({2: 1})
    assert stab == span(t.dim, [{0: 1}, {1: 1}, {3: 1}, {4: 1}])


def test_subspace_canonical_idempotent():
    vecs = [{0: Fraction(2), 1: Fraction(4)}, {1: Fraction(1), 2: Fraction(3)}]
    s1 = span(4, vecs)
    s2 = span(4, s1.rows.values())
    assert s1 == s2
    # order independence
    s3 = span(4, list(reversed(vecs)))
    assert s1 == s3
    # fully reduced rows: each pivot is 1 and no other row meets its column
    for piv, row in s1.rows.items():
        assert min(row) == piv and row[piv] == 1
        assert all(piv not in other for p, other in s1.rows.items() if p != piv)


def test_subspace_ops():
    a = span(3, [{0: Fraction(1)}, {1: Fraction(1)}])
    b = span(3, [{1: Fraction(1)}, {2: Fraction(1)}])
    joined = span(3, [*a.rows.values(), *b.rows.values()])
    assert joined.rank == 3
    assert all(joined.contains(v) for v in [*a.rows.values(), *b.rows.values()])
