from fractions import Fraction
from math import comb

import subprocess
import sys
from pathlib import Path

import pytest

from subadjoint import liecore, prolong, verify
from subadjoint.cases import build_case
from subadjoint.liecore import ConsistencyError
from subadjoint.galg import build_g
from subadjoint.linalg import SparseRationalMatrix
from subadjoint.prolong import g_tower, unknown_layout, witness_rank
from subadjoint.spencer import (
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

from oracles import _map_to_vec, basis_C2, conjugation_expansion_check


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
    tower = g_tower(g)
    offsets, _, _ = unknown_layout(tower, 1)
    assert len(tower.bases[1]) == 2
    for phi in tower.bases[1]:
        f = _map_to_vec(offsets, phi)
        assert f
        for row in mat.rows:
            val = sum(
                row.get(j, Fraction(0)) * f.get(j, Fraction(0))
                for j in set(row) | set(f)
            )
            assert val == 0


def _reference_differential(g, k) -> list:
    """Rows of del on C^{k,1}, stamped straight from g.table, one per
    C^{k,2} basis element (u, v, w)."""
    sp = spencer_spaces(g, k)
    col_of = {uw: i for i, uw in enumerate(sp.basis_C1)}
    row_of = {uvw: i for i, uvw in enumerate(basis_C2(sp))}
    t = g.table
    rows = [dict() for _ in range(sp.dim_C2)]
    gplus = [i for i, d in enumerate(g.degree) if d >= 1]

    def stamp(u, v, target_vec, col, sign):
        for m, c in target_vec.items():
            ri = row_of.get((u, v, m))
            if ri is None:
                continue
            val = rows[ri].get(col, Fraction(0)) + sign * c
            if val:
                rows[ri][col] = val
            else:
                rows[ri].pop(col, None)

    for ui, u in enumerate(gplus):
        for v in gplus[ui + 1:]:
            du, dv = g.degree[u], g.degree[v]
            for w in range(t.dim):
                # [f(u), v] over columns (u, w)
                if g.degree[w] == du + k and (u, w) in col_of:
                    stamp(u, v, t.bracket_basis(w, v), col_of[(u, w)], +1)
                # [u, f(v)] = -[f(v), u]
                if g.degree[w] == dv + k and (v, w) in col_of:
                    stamp(u, v, t.bracket_basis(w, u), col_of[(v, w)], -1)
            # -f([u, v])
            for w, cw in t.bracket_basis(u, v).items():
                for w2 in range(t.dim):
                    if g.degree[w2] == g.degree[w] + k and (w, w2) in col_of:
                        stamp(u, v, {w2: -cw}, col_of[(w, w2)], +1)
    return rows


def _bump_first(g, degrees) -> None:
    """Add 1 to one structure constant of a bracket between the given
    degrees (a new dict, so no table shares the change)."""
    key = next(k for k in sorted(g.table.brackets)
               if sorted((g.degree[k[0]], g.degree[k[1]])) == list(degrees)
               and g.table.brackets[k])
    vec = g.table.brackets[key]
    m = min(vec)
    g.table.brackets[key] = {**vec, m: vec[m] + 1}


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_differential_matches_table_reference(label):
    # the nonzero reference rows, in C^{k,2} basis order, are the rows of
    # spencer_differential (so their RREFs agree too)
    case = build_case(label)
    clean = {}
    for bump in (None, (-1, 1), (1, 1)):
        g = build_g(case)
        if bump:
            _bump_first(g, bump)
        got = {}
        for k in (-1, -2, -3):
            mat, sp = spencer_differential(g, k)
            ref = [row for row in _reference_differential(g, k) if row]
            assert mat.rows == ref, (label, bump, k)
            got[k] = mat.rows
        if bump is None:
            clean = got
        else:
            assert got != clean, (label, bump)


def _qdims(g) -> dict:
    """q_dimension at k = -7..-1 on one tower of g, with the floors verify
    gives it: the rank of the ad witnesses at k = -1, 0 below."""
    tower = g_tower(g)
    floor = witness_rank(tower.bases[1])
    return {k: q_dimension(g, k, tower, floor if k == -1 else 0)
            for k in range(-7, 0)}


def test_rank_and_qdim_b3(b3):
    case, g = b3
    qs = _qdims(g)
    q = qs[-1]
    # kernel of del on C^{-1,1} is exactly the first prolongation (dim 2)
    assert q.dim_C1 == 26
    assert q.rank == 26 - 2
    assert q.value == 45 - 24
    for qk in qs.values():
        assert 0 <= qk.value <= qk.dim_C2
    assert qs[-7].value == 0


@pytest.mark.parametrize("label", ["B3", "D4", "F4", "E6"])
def test_early_exit_rank_equals_full_rank(label):
    # q_dimension stops at the forced rank; the full elimination agrees
    g = build_g(build_case(label))
    for k, q in _qdims(g).items():
        assert q.rank == spencer_differential(g, k)[0].rank()


def test_import_leaves_numpy_unloaded():
    # numpy serves only the mod-p helpers, which no check calls: importing
    # the package leaves it unloaded, and a full run passes with it blocked
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import subadjoint",
        "if 'numpy' in sys.modules:",
        "    sys.exit('import subadjoint loaded numpy')",
        "sys.modules['numpy'] = None",
        "from subadjoint.cli import main",
        "sys.exit(main(['--case', 'B3', '--checks', 'all', '--seed', '7']))",
    ])
    r = subprocess.run([sys.executable, "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_validated_case_tower_builds_one_bracket_index(monkeypatch):
    # the Jacobi scan of validate reads the index the tower's substitution
    # built, so n_+ is indexed once per case
    ctx = verify._Context(verify.registry_entry("B3"), seed=0)
    ctx.g  # the case's own Jacobi checks index s and g before the count
    original, built = liecore.bracket_index, []

    def counted(L):
        built.append(L)
        return original(L)

    monkeypatch.setattr(liecore, "bracket_index", counted)
    monkeypatch.setattr(prolong, "bracket_index", counted)
    assert all(ctx.ad_passes)
    ctx.tower.validate()
    assert len(built) == 1


def test_spencer_spaces_bookkeeping_raises():
    # a degree-4 element is enumerated but not in the closed-form count
    g = build_g(build_case("B3"))
    g.degree[g.V_level_indices[3][0]] = 4
    with pytest.raises(ConsistencyError, match="C\\^\\{k,1\\}"):
        spencer_spaces(g, -2)


def test_decomposition_closure(b3, f4):
    for case, g in (b3, f4):
        for k in range(-7, 0):
            desc = hom_decomposition(g, k, g_basis_cI(g))
            assert sum(d.dim for d in desc) == spencer_spaces(g, k).dim_C2


def test_lambda2_v2_to_v3_piece(b3):
    case, g = b3
    desc = hom_decomposition(g, -1, g_basis_cI(g))
    piece = [d for d in desc if d.family == 6 and d.index == (2, 2)]
    assert len(piece) == 1
    assert piece[0].dim == comb(2, 2) == 1  # C(dim V2, 2) * dim V3
    assert rk_allowed_extra(-1, 6, (2, 2))
    assert not rk_designated(-1, 6, (2, 2))


def _pieces_per_element(g, k):
    """(family, index) -> (dim, c^I values), one Hom basis element at a time."""
    cIs = g_basis_cI(g)
    l1 = list(g.l1_indices)
    V = {j: list(g.V_level_indices.get(j, ())) for j in range(4)}
    lhat = {-1: list(g.lminus1_indices),
            0: [g.id_index] + list(g.l0_indices), 1: l1}

    def wedge(ix):
        return [(x, y) for n, x in enumerate(ix) for y in ix[n + 1:]]

    def tensor(ix, jy):
        return [(x, y) for x in ix for y in jy]

    sources = [((1, None), wedge(l1), V.get(k + 2, [])),
               ((2, None), wedge(l1), lhat.get(k + 2, []))]
    for i in (1, 2, 3):
        sources.append(((3, (i,)), tensor(l1, V[i]), lhat.get(k + i + 1, [])))
        sources.append(((4, (i,)), tensor(l1, V[i]), V.get(k + i + 1, [])))
    for i in (1, 2, 3):
        for j in range(i, 4):
            src = wedge(V[i]) if i == j else tensor(V[i], V[j])
            sources.append(((5, (i, j)), src, lhat.get(k + i + j, [])))
            sources.append(((6, (i, j)), src, V.get(k + i + j, [])))
    out = {}
    for key, pairs, targets in sources:
        values = [cIs[w] - cIs[a] - cIs[b] for a, b in pairs for w in targets]
        out[key] = (len(values), tuple(sorted(set(values))))
    return out


@pytest.mark.parametrize("label", ["B3", "D4", "F4", "E6"])
def test_set_level_cI_matches_per_element(label):
    case = build_case(label)
    g = build_g(case)
    cIs = g_basis_cI(g)
    for k in range(-7, 0):
        want = _pieces_per_element(g, k)
        desc = hom_decomposition(g, k, cIs)
        got = {(d.family, d.index): (d.dim, d.cI_values) for d in desc}
        assert got == want, (label, k)


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
    _, offenders = summand_cI_table(g, k, g_basis_cI(g))
    assert not offenders, offenders


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
    pieces, _ = summand_cI_table(g, -3, g_basis_cI(g))
    fives = [d for d in pieces if d.family == 5 and d.dim > 0]
    assert fives and all(set(d.cI_values) == {Fraction(0)} for d in fives)
    assert all(rk_designated(-3, 5, d.index) for d in fives)


def test_k_minus_4_has_no_nonnegative_summand(b3):
    case, g = b3
    desc = hom_decomposition(g, -4, g_basis_cI(g))
    for d in desc:
        if d.dim:
            assert max(d.cI_values) < 0


def test_partial_differentials_b3(b3):
    case, g = b3
    rep = partial_prime_checks(g, g_tower(g))
    assert rep.dim_hom == 4
    assert rep.dim_target_prime == 1
    assert rep.rank_prime == 1
    assert rep.nullity_doubleprime == 0
    assert rep.pairing_nondegenerate


def _reference_partial_ranks(g) -> tuple[int, int]:
    """rank del' and nullity del'' stamped straight from g.table."""
    t = g.table
    V1, V2 = list(g.V_level_indices[1]), list(g.V_level_indices[2])
    v3 = g.V_level_indices[3][0]
    l1 = list(g.l1_indices)
    col_of = {c: i for i, c in enumerate((v, a) for v in V2 for a in l1)}
    rows_prime = []
    for i1, w1 in enumerate(V2):
        for w2 in V2[i1 + 1:]:
            row = {}
            for a in l1:
                for w, other, sign in ((w1, w2, 1), (w2, w1, -1)):
                    c = t.bracket_basis(a, other).get(v3)
                    if c:
                        col = col_of[(w, a)]
                        row[col] = row.get(col, Fraction(0)) + sign * c
            rows_prime.append({j: c for j, c in row.items() if c})
    rows_dp = []
    for u in V1:
        for v in V2:
            bycoord = {}
            for a in l1:
                for m, c in t.bracket_basis(a, u).items():
                    bycoord.setdefault(m, {})[col_of[(v, a)]] = -c
            rows_dp.extend(bycoord.values())
    n = len(col_of)
    return (SparseRationalMatrix.from_rows(rows_prime, n).rank(),
            n - SparseRationalMatrix.from_rows(rows_dp, n).rank())


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_lost_pairing_entry_fails_restricted_differentials(label):
    g = build_g(build_case(label))
    rep = partial_prime_checks(g, g_tower(g))
    assert rep.pairing_nondegenerate
    assert (rep.rank_prime, rep.nullity_doubleprime) == \
        _reference_partial_ranks(g) == (rep.dim_target_prime, 0)
    # delete the V_3 entry of the one [l_1[0], V_2] bracket
    a, v3 = g.l1_indices[0], g.V_level_indices[3][0]
    hits = [w for w in g.V_level_indices[2]
            if g.table.bracket_basis(a, w).get(v3)]
    assert len(hits) == 1
    key = tuple(sorted((a, hits[0])))
    g.table.brackets[key] = {
        m: c for m, c in g.table.brackets[key].items() if m != v3}
    rep = partial_prime_checks(g, g_tower(g))
    assert not rep.pairing_nondegenerate
    assert (rep.rank_prime, rep.nullity_doubleprime) == \
        _reference_partial_ranks(g)


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
    _, offenders = summand_cI_table(g, -1, g_basis_cI(g))
    assert offenders[-1][0] == "pieces of C^{k,2}"


def test_closure_detects_missing_piece_under_python_O():
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_spencer import _b3_without_v3",
        "from subadjoint.spencer import g_basis_cI, summand_cI_table",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "case, g = _b3_without_v3()",
        "_, offenders = summand_cI_table(g, -1, g_basis_cI(g))",
        "sys.exit(0 if offenders else 'lost V_3 pieces accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
