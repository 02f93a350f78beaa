import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subadjoint.cases import build_case
from subadjoint.galg import build_g
from subadjoint.liecore import LieAlgebraTable
from subadjoint.prolong import (
    ProlongConsistencyError,
    ProlongDepthError,
    ProlongInput,
    ad_witnesses,
    direct_sum_check,
    direct_sum_input,
    formal_vector_field_oracle,
    input_from_g,
    input_from_l,
    prolongation,
    residual_is_zero,
    sl2_adjoint_check,
    sl2_line_input,
    truncation_matches_sl2,
    witness_rank,
    xvv_in_oracle,
    _Tower,
)
from subadjoint.rootsys import build_root_system, chevalley_table


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
    inp, gplus, g0 = input_from_g(g)
    wits = ad_witnesses(g, inp, gplus, g0)
    assert witness_rank(wits) == d1
    res = prolongation(inp, 2, witnesses={1: wits})
    assert res.dims == {1: d1, 2: 0}


def test_witness_floor_stops_early():
    case = build_case("B3")
    g = build_g(case)
    inp, gplus, g0 = input_from_g(g)
    wits = ad_witnesses(g, inp, gplus, g0)
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
    inp, gplus, g0 = input_from_g(g)
    wits = ad_witnesses(g, inp, gplus, g0)
    block = next(b for b in wits[0] if b)
    block[next(iter(block))] += 1
    return inp, wits


def test_non_jacobi_nplus_raises():
    inp, _, _ = input_from_g(build_g(build_case("B3")))
    t = inp.nplus
    key = min(k for k, v in t.brackets.items()
              if v and inp.degrees[k[0]] == inp.degrees[k[1]] == 1)
    vec = t.brackets[key]
    vec[min(vec)] *= 2
    with pytest.raises(ProlongConsistencyError, match="Jacobi"):
        inp.validate()


def _tripled_n0_entry_input():
    """The B3 input with one entry of one n_0 matrix tripled."""
    inp, _, _ = input_from_g(build_g(build_case("B3")))
    col = next(c for c in inp.n0_mats[1] if c)
    col[min(col)] *= 3
    return inp


def test_non_derivation_n0_raises():
    with pytest.raises(ProlongConsistencyError, match="not a derivation"):
        prolongation(_tripled_n0_entry_input(), 2)


def test_non_derivation_n0_raises_under_python_O():
    # the check must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_prolong import _tripled_n0_entry_input",
        "from subadjoint.prolong import ProlongConsistencyError, prolongation",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        "    prolongation(_tripled_n0_entry_input(), 2)",
        "except ProlongConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('non-derivation n_0 accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_direct_sum_rejects_unsupported_factors():
    inp, _, _ = input_from_g(build_g(build_case("B3")))
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
    with pytest.raises(ProlongConsistencyError) as err:
        prolongation(inp, 2, witnesses={1: wits})
    assert err.value.witness


def test_corrupted_witness_raises_under_python_O():
    # the check must not be an assert, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_prolong import _corrupted_b3_witnesses",
        "from subadjoint.prolong import ProlongConsistencyError, prolongation",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "inp, wits = _corrupted_b3_witnesses()",
        "try:",
        "    prolongation(inp, 2, witnesses={1: wits})",
        "except ProlongConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('corrupted witness accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_solver_kernel_satisfies_compatibility():
    case = build_case("B4")
    g = build_g(case)
    inp, gplus, g0 = input_from_g(g)
    res = prolongation(inp, 1)
    tower = _Tower(inp)
    for phi in res.bases[1]:
        assert residual_is_zero(inp, tower, 1, phi)


def test_witnesses_are_solver_solutions():
    case = build_case("B3")
    g = build_g(case)
    inp, gplus, g0 = input_from_g(g)
    wits = ad_witnesses(g, inp, gplus, g0)
    tower = _Tower(inp)
    for phi in wits:
        assert residual_is_zero(inp, tower, 1, phi)


def test_monotone_vanishing_reported():
    case = build_case("F4")
    g = build_g(case)
    inp, gplus, g0 = input_from_g(g)
    res = prolongation(inp, 2)
    assert res.monotone_vanishing_ok()
