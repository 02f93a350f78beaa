import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from subadjoint.cases import build_case
from subadjoint.galg import build_g
from subadjoint.liecore import ConsistencyError, LieAlgebraTable
from subadjoint.linalg import vec_add_scaled
from subadjoint.prolong import (
    ProlongDepthError,
    ProlongInput,
    g_tower,
    pair_rows,
    prolongation,
    residual_is_zero,
    unknown_layout,
    witness_rank,
    _Tower,
)
from subadjoint.rootsys import build_root_system, chevalley_table

from oracles import (
    direct_sum_check,
    direct_sum_input,
    formal_vector_field_oracle,
    input_from_l,
    sl2_adjoint_check,
    sl2_line_input,
    truncation_matches_sl2,
    xvv_in_oracle,
)


def test_oracle_bracket_relations():
    table, degrees = formal_vector_field_oracle(4)
    t = lambda a: {a: Fraction(1)}
    # [t d/dt, t^{k+1} d/dt] = k t^{k+1} d/dt
    for k in range(-1, 4):
        assert table.bracket(t(1), t(k + 1)) == (
            {k + 1: Fraction(k)} if k else {}
        )
    # [t^2 d/dt, d/dt] = -2 t d/dt
    assert table.bracket(t(2), t(0)) == {1: Fraction(-2)}
    # [d/dt, t^{k+1} d/dt] = (k+1) t^k d/dt
    for k in range(0, 4):
        assert table.bracket(t(0), t(k + 1)) == {k: Fraction(k + 1)}
    assert degrees == (1, 0, -1, -2, -3, -4)


def test_oracle_double_bracket_nonvanishing():
    assert xvv_in_oracle(6)


def test_truncation_matches_sl2():
    rep = truncation_matches_sl2(chevalley_table(build_root_system("A1")))
    assert rep.status == "PASS"


def test_adjoint_fixture_values():
    rep = sl2_adjoint_check()
    assert rep.status == "PASS"
    assert rep.phi_a_a == {1: Fraction(6)}          # 6 t d/dt
    assert rep.double_bracket == {0: Fraction(-6)}  # -6 d/dt
    assert rep.lhs == {1: Fraction(-12)}            # -12 t d/dt
    assert rep.rhs == {1: Fraction(12)}             # +12 t d/dt


def test_line_input_prolongs_forever():
    res = prolongation(sl2_line_input(), 6)
    assert res.dims == {k: 1 for k in range(1, 7)}


def test_depth_guard():
    with pytest.raises(ProlongDepthError):
        prolongation(sl2_line_input(), 7)
    res = prolongation(sl2_line_input(), 7, allow_deep=True)
    assert res.dims[7] == 1


def test_direct_sum_two_lines():
    rep = direct_sum_check(sl2_line_input(), sl2_line_input(), 4)
    assert rep.ok
    assert rep.dims_sum == {1: 2, 2: 2, 3: 2, 4: 2}


def test_direct_sum_with_zero_factor():
    zero = direct_sum_input(sl2_line_input(), sl2_line_input())
    # build an honest zero input by slicing nothing
    from subadjoint.liecore import LieAlgebraTable
    from subadjoint.prolong import ProlongInput

    empty = ProlongInput(
        nplus=LieAlgebraTable(dim=0, labels=(), brackets={}),
        degrees=(), n0_mats=(),
    )
    rep = direct_sum_check(sl2_line_input(), empty, 3)
    assert rep.ok
    assert rep.dims_sum == rep.dims_a


def test_direct_sum_line_plus_quadric_factor():
    case = build_case("D5")
    quad = next(
        ci for ci, c in enumerate(case.l_components) if c.type_label != "A1"
    )
    inp_quad = input_from_l(case, ideal=quad)
    rep = direct_sum_check(sl2_line_input(), inp_quad, 2)
    assert rep.ok
    # first prolongation of the quadric grading is its own l''_{-1}
    quad_l1 = sum(1 for r in case.l1_roots() if case.ideal_of_root(r) == quad)
    assert rep.dims_b[1] == quad_l1
    assert rep.dims_sum[1] == 1 + quad_l1


def test_l_input_b3_dims():
    case = build_case("B3")
    res = prolongation(input_from_l(case), 2)
    assert res.dims == {1: 2, 2: 2}


def test_l_input_f4_dims():
    case = build_case("F4")
    res = prolongation(input_from_l(case), 2)
    assert res.dims == {1: 6, 2: 0}


@pytest.mark.parametrize("label,d1", [("B3", 2), ("B4", 4), ("D4", 3)])
def test_main_prolongation_exact(label, d1):
    case = build_case(label)
    g = build_g(case)
    tower = g_tower(g)
    wits = tower.bases[1]
    assert witness_rank(wits) == d1
    res = prolongation(tower.inp, 2, witnesses={1: wits})
    assert res.dims == {1: d1, 2: 0}


def test_witness_floor_stops_early():
    case = build_case("B3")
    g = build_g(case)
    tower = g_tower(g)
    inp, wits = tower.inp, tower.bases[1]
    # the witnesses pin level 1 at their rank before every pair is fed
    res = prolongation(inp, 1, witnesses={1: wits})
    assert res.stopped_early == {1: True}
    # without a floor, elimination runs through all pairs to the same kernel
    full = prolongation(inp, 1)
    assert full.stopped_early == {1: False}
    assert res.dims == full.dims == {1: 2}


def _corrupted_b3_witnesses():
    """The B3 ad witnesses with one coefficient of the first one changed."""
    case = build_case("B3")
    g = build_g(case)
    tower = g_tower(g)
    wits = tower.bases[1]
    block = next(b for b in wits[0] if b)
    block[next(iter(block))] += 1
    return tower.inp, wits


def test_non_jacobi_nplus_raises():
    tower = g_tower(build_g(build_case("B3")))
    inp = tower.inp
    t = inp.nplus
    key = min(k for k, v in t.brackets.items()
              if v and inp.degrees[k[0]] == inp.degrees[k[1]] == 1)
    vec = t.brackets[key]
    vec[min(vec)] *= 2
    with pytest.raises(ConsistencyError, match="Jacobi"):
        tower.validate()


def _tripled_n0_entry_input():
    """The B3 input with one entry of one n_0 matrix tripled."""
    inp = g_tower(build_g(build_case("B3"))).inp
    col = next(c for c in inp.n0_mats[1] if c)
    col[min(col)] *= 3
    return inp


def test_non_derivation_n0_raises():
    with pytest.raises(ConsistencyError, match="not a derivation"):
        prolongation(_tripled_n0_entry_input(), 2)


def test_non_derivation_n0_raises_under_python_O():
    # the check must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_prolong import _tripled_n0_entry_input",
        "from subadjoint.liecore import ConsistencyError",
        "from subadjoint.prolong import prolongation",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        "    prolongation(_tripled_n0_entry_input(), 2)",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('non-derivation n_0 accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_direct_sum_rejects_unsupported_factors():
    inp = g_tower(build_g(build_case("B3"))).inp
    with pytest.raises(ValueError, match="degree 1 only"):
        direct_sum_input(sl2_line_input(), inp)
    bracketed = ProlongInput(
        nplus=LieAlgebraTable(dim=2, labels=("x", "y"),
                              brackets={(0, 1): {0: Fraction(1)}}),
        degrees=(1, 1), n0_mats=(),
    )
    with pytest.raises(ValueError, match="abelian"):
        direct_sum_input(sl2_line_input(), bracketed)


def test_corrupted_witness_raises():
    inp, wits = _corrupted_b3_witnesses()
    with pytest.raises(ConsistencyError, match="witness map fails"):
        prolongation(inp, 2, witnesses={1: wits})


def test_corrupted_witness_raises_under_python_O():
    # the check must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_prolong import _corrupted_b3_witnesses",
        "from subadjoint.liecore import ConsistencyError",
        "from subadjoint.prolong import prolongation",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "inp, wits = _corrupted_b3_witnesses()",
        "try:",
        "    prolongation(inp, 2, witnesses={1: wits})",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('corrupted witness accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_solver_kernel_satisfies_compatibility():
    case = build_case("B4")
    g = build_g(case)
    inp = g_tower(g).inp
    res = prolongation(inp, 1)
    tower = _Tower(inp)
    for phi in res.bases[1]:
        assert residual_is_zero(tower, 1, phi)


def test_witnesses_are_solver_solutions():
    case = build_case("B3")
    g = build_g(case)
    tower = g_tower(g)
    wits = tower.bases[1]
    tower = _Tower(tower.inp)
    for phi in wits:
        assert residual_is_zero(tower, 1, phi)


def test_monotone_vanishing_reported():
    case = build_case("F4")
    g = build_g(case)
    res = prolongation(g_tower(g).inp, 2)
    assert res.monotone_vanishing_ok()


# --------------------------------------------------------------------------
# The compatibility equation against a direct evaluation on every pair
# --------------------------------------------------------------------------

def _reference_bracket(inp, tower, j, s, v):
    """[basis_s of T_j, e_v] in T_{j + deg v} coordinates, read straight off
    the n_+ bracket (j >= 1), the derivation matrix (j = 0) or the stored
    map (j < 0)."""
    if j < 0:
        return dict(tower.bases[-j][s][v])
    if j == 0:
        raw = inp.n0_mats[s][v]
    else:
        raw = inp.nplus.bracket_basis(tower.comp_list[j][s], v)
    pos = tower.pos_in_comp.get(j + inp.degrees[v], {})
    return {pos[w]: c for w, c in raw.items()}


def _reference_residual_is_zero(inp, tower, k, phi):
    """The compatibility equation evaluated on every pair u < v."""
    for u, v in combinations(range(inp.dim), 2):
        du, dv = inp.degrees[u], inp.degrees[v]
        if tower.space_dim(du + dv - k) == 0:
            continue
        total = {}
        for w, cw in inp.nplus.bracket_basis(u, v).items():
            vec_add_scaled(total, phi[w], cw)
        for s, c in phi[u].items():
            vec_add_scaled(total, _reference_bracket(inp, tower, du - k, s, v), -c)
        for s, c in phi[v].items():
            vec_add_scaled(total, _reference_bracket(inp, tower, dv - k, s, u), c)
        if total:
            return False
    return True


def _reference_pair_rows(inp, tower, k, offsets, u, v, only=None):
    """The rows of one pair, stamped term by term from _reference_bracket."""
    if tower.space_dim(inp.degrees[u] + inp.degrees[v] - k) == 0:
        return []
    bycoord = {}

    def slots(x):
        if only is None:
            return range(tower.space_dim(inp.degrees[x] - k))
        return only.get(x, ())

    def stamp(col, coords, sign):
        for m, c in coords.items():
            row = bycoord.setdefault(m, {})
            val = row.get(col, 0) + sign * c
            if val:
                row[col] = val
            else:
                row.pop(col, None)

    for w, cw in inp.nplus.bracket_basis(u, v).items():
        for s in slots(w):
            stamp(offsets[w] + s, {s: cw}, +1)
    for s in slots(u):
        stamp(offsets[u] + s,
              _reference_bracket(inp, tower, inp.degrees[u] - k, s, v), -1)
    for s in slots(v):
        stamp(offsets[v] + s,
              _reference_bracket(inp, tower, inp.degrees[v] - k, s, u), +1)
    return [row for _, row in sorted(bycoord.items()) if row]


def _substitution_maps(inp, tower, level):
    """The exact solutions of one level: the ad witnesses (level 1) or the
    n_0 derivations in tower coordinates (level 0)."""
    if level == 1:
        return tower.bases[1]
    return [[_reference_bracket(inp, tower, 0, a, v) for v in range(inp.dim)]
            for a in range(inp.n0_dim)]


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
@pytest.mark.parametrize("level", [0, 1])
def test_substitution_matches_all_pairs(label, level):
    # seeded single-entry perturbations of exact solutions: the pairs
    # residual_is_zero selects must catch every one the full scan catches
    tower = g_tower(build_g(build_case(label)))
    inp = tower.inp
    maps = _substitution_maps(inp, tower, level)
    assert all(residual_is_zero(tower, level, phi) for phi in maps)
    rng = random.Random(f"{label}-{level}")
    verdicts = []
    for _ in range(50):
        phi = [dict(block) for block in rng.choice(maps)]
        u = rng.choice([x for x in range(inp.dim)
                        if tower.space_dim(inp.degrees[x] - level)])
        s = rng.randrange(tower.space_dim(inp.degrees[u] - level))
        vec_add_scaled(phi[u], {s: 1}, rng.choice([-2, -1, 1, 2]))
        want = _reference_residual_is_zero(inp, tower, level, phi)
        assert residual_is_zero(tower, level, phi) == want
        verdicts.append(want)
    assert False in verdicts


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_pair_rows_match_term_by_term_reference(label):
    g = build_g(build_case(label))
    tower = g_tower(g)
    inp = tower.inp

    def items(rows):
        return [list(row.items()) for row in rows]

    for k in range(1, 8):
        offsets, _, _ = unknown_layout(tower, k)
        for u, v in combinations(range(inp.dim), 2):
            assert items(pair_rows(tower, k, offsets, u, v)) == items(
                _reference_pair_rows(inp, tower, k, offsets, u, v))
    # the (V_2, l_1) block of the restricted differentials
    gplus = [i for i, d in enumerate(g.degree) if d >= 1]
    pos = {gi: i for i, gi in enumerate(gplus)}
    V1, V2 = (g.V_level_indices[j] for j in (1, 2))
    only = {pos[v]: [tower.pos_in_comp[1][pos[a]] for a in g.l1_indices]
            for v in V2}
    offsets, _, _ = unknown_layout(tower, 1)
    pairs = list(combinations(V2, 2)) + [(u, v) for u in V1 for v in V2]
    assert any(pair_rows(tower, 1, offsets, pos[u], pos[v], only)
               for u, v in pairs)
    for u, v in pairs:
        assert items(pair_rows(tower, 1, offsets, pos[u], pos[v], only)) \
            == items(_reference_pair_rows(inp, tower, 1, offsets, pos[u],
                                          pos[v], only))


def _duplicated_n0_input():
    """The B3 input with its last n_0 matrix appended a second time."""
    inp = g_tower(build_g(build_case("B3"))).inp
    return ProlongInput(nplus=inp.nplus, degrees=inp.degrees,
                        n0_mats=inp.n0_mats + (inp.n0_mats[-1],))


def _unclosed_n0_input():
    """The F4 input without ad e_r for the highest root r of l_0 = gl3.

    r is the sum of the other two positive roots b, c of l_0, so
    [ad e_b, ad e_c] is a nonzero multiple of ad e_r: the remaining
    matrices are independent derivations whose span is not closed.
    """
    g = build_g(build_case("F4"))
    inp = g_tower(g).inp
    g0 = g.components()[0]
    top = max((r for r in g.case.l0_roots() if sum(r) > 0), key=sum)
    drop = g0.index(g.l_offset + g.l_basis_keys.index(("e", top)))
    return ProlongInput(nplus=inp.nplus, degrees=inp.degrees,
                        n0_mats=inp.n0_mats[:drop] + inp.n0_mats[drop + 1:])


def _ungenerated_input():
    """An abelian n_+ with a degree-2 vector that degree 1 cannot reach."""
    nplus = LieAlgebraTable(dim=2, labels=("x", "y"), brackets={})
    return ProlongInput(nplus=nplus, degrees=(1, 2), n0_mats=())


def _degree_mixing_n0_input():
    """The B3 input with one n_0 column moved partly into degree 2."""
    inp = g_tower(build_g(build_case("B3"))).inp
    j = inp.degrees.index(1)
    inp.n0_mats[0][j][inp.degrees.index(2)] = 1
    return inp


VALIDATE_CONTROLS = [
    ("_duplicated_n0_input", "n0 matrices are linearly dependent"),
    ("_unclosed_n0_input", "n0 not closed under commutator"),
    ("_ungenerated_input", "degree-1 component does not generate"),
    ("_degree_mixing_n0_input", "n0 element 0 is not degree-preserving"),
]


@pytest.mark.parametrize("make,message", VALIDATE_CONTROLS)
def test_validate_controls_raise(make, message):
    with pytest.raises(ConsistencyError, match=message):
        _Tower(globals()[make]()).validate()


@pytest.mark.parametrize("make,message", VALIDATE_CONTROLS)
def test_validate_controls_raise_under_python_O(make, message):
    # the checks must not be asserts, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        f"from test_prolong import {make}",
        "from subadjoint.liecore import ConsistencyError",
        "from subadjoint.prolong import _Tower",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        f"    _Tower({make}()).validate()",
        "except ConsistencyError as e:",
        f"    sys.exit(0 if str(e) == {message!r} else str(e))",
        "sys.exit('invalid input accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
