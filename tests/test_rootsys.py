import dataclasses
import gc
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from subadjoint import rootsys
from subadjoint.liecore import ConsistencyError, check_jacobi
from subadjoint.rootsys import (
    ChevalleyConstants,
    build_root_system,
    chevalley_generators,
    chevalley_table,
    classify_dynkin,
    node_orbit,
)

from oracles import (
    WeightVector,
    check_antisymmetry,
    string_length_down,
    to_fundamental_coords,
    to_simple_root_coords,
)

CLASSICAL_COUNTS = {
    "A1": 1, "A2": 3, "B3": 9, "B4": 16, "C3": 9, "D4": 12, "D5": 20,
    "F4": 24, "G2": 6, "E6": 36, "E7": 63, "E8": 120,
}


@pytest.mark.parametrize("label,count", sorted(CLASSICAL_COUNTS.items()))
def test_positive_root_counts(label, count):
    rs = build_root_system(label)
    assert len(rs.positive_roots) == count


def test_e8_dimension_bookkeeping():
    rs = build_root_system("E8")
    assert 8 + 2 * len(rs.positive_roots) == 248


def test_highest_root_dominates():
    for label in ("B3", "F4", "E6"):
        rs = build_root_system(label)
        theta = rs.highest_root
        for r in rs.positive_roots:
            assert all(t >= c for t, c in zip(theta, r))


def test_closure_property():
    # every positive root is simple or a simple plus a positive root
    for label in ("B3", "D4", "G2"):
        rs = build_root_system(label)
        pos = set(rs.positive_roots)
        for r in rs.positive_roots:
            if sum(r) == 1:
                continue
            assert any(
                tuple(x - int(i == j) for j, x in enumerate(r)) in pos
                for i in range(rs.rank)
            )


def test_unknown_labels_rejected():
    for bad in ("H4", "E9", "B1", "F5", "", "Q3"):
        with pytest.raises(ValueError):
            build_root_system(bad)


def test_deterministic_tables():
    a = chevalley_table(build_root_system("B3"))
    b = chevalley_table(build_root_system("B3"))
    assert a.labels == b.labels
    assert a.brackets == b.brackets


def test_sl2_relations():
    t = chevalley_table(build_root_system("A1"))
    h, e, f = {0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}
    assert t.bracket(e, f) == h
    assert t.bracket(h, e) == {1: Fraction(2)}
    assert t.bracket(h, f) == {2: Fraction(-2)}


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "D4", "G2", "F4"])
def test_chevalley_antisymmetry_and_jacobi(label):
    rs = build_root_system(label)
    t = chevalley_table(rs)
    assert check_antisymmetry(t)
    gens = chevalley_generators(rs)
    simple = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    roots = rs.all_roots()
    assert sorted(roots[k - rs.rank] for k in gens) == sorted(
        simple + [tuple(-c for c in a) for a in simple])
    assert check_jacobi(t, gens) == []


def test_corrupted_table_detected():
    rs = build_root_system("B3")
    t = chevalley_table(rs)
    key = next(k for k, v in t.brackets.items() if v)
    tgt = next(iter(t.brackets[key]))
    t.brackets[key][tgt] += 1
    assert check_jacobi(t, chevalley_generators(rs)) != []


@pytest.mark.parametrize("label", ["B3", "G2", "F4", "D4"])
def test_structure_constants_string_property(label):
    rs = build_root_system(label)
    cc = ChevalleyConstants(rs)
    for a in rs.all_roots():
        for b in rs.all_roots():
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and rs.is_root(s):
                n = cc.n(a, b)
                assert abs(n) == string_length_down(rs, b, a) + 1


def test_integer_structure_constants():
    rs = build_root_system("F4")
    t = chevalley_table(rs)
    for vec in t.brackets.values():
        for c in vec.values():
            assert type(c) is int and c


def _half_constant_table():
    """The A2 table with every N(a, b) patched to 1/2."""
    real = rootsys.ChevalleyConstants.n
    rootsys.ChevalleyConstants.n = lambda self, a, b: Fraction(1, 2)
    try:
        return chevalley_table(build_root_system("A2"))
    finally:
        rootsys.ChevalleyConstants.n = real


def test_non_integral_constant_raises():
    with pytest.raises(ConsistencyError, match="not a nonzero integer"):
        _half_constant_table()


def test_non_integral_constant_raises_under_python_O():
    # int storage rests on this guard; an assert would vanish under -O
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_rootsys import _half_constant_table",
        "from subadjoint.liecore import ConsistencyError",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        "    _half_constant_table()",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('non-integral constant stored')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _a2_with_half_lengths(*d):
    return dataclasses.replace(build_root_system("A2"),
                               half_lengths=tuple(Fraction(x) for x in d))


def _non_integral_coroot():
    # 6(alpha, alpha) = 9 for alpha = a_1 + a_2, which does not divide
    # alpha_1 6(a_1, a_1) = 12
    return _a2_with_half_lengths(1, Fraction(1, 2)).coroot_coords((1, 1))


def _non_integral_form6():
    # 6 (1/4) C[1][0] = -3/2
    return _a2_with_half_lengths(1, Fraction(1, 4)).form6((1, 0), (0, 1))


# (fault, a word of its message); each guard must raise ConsistencyError
ROOT_DATA_FAULTS = [
    ("_non_integral_coroot", "coroot coefficient"),
    ("_non_integral_form6", "half lengths"),
]


@pytest.mark.parametrize("fault,word", ROOT_DATA_FAULTS)
def test_bad_root_data_raises(fault, word):
    with pytest.raises(ConsistencyError, match=word):
        globals()[fault]()


@pytest.mark.parametrize("fault,word", ROOT_DATA_FAULTS)
def test_bad_root_data_raises_under_python_O(fault, word):
    # the guards must not be asserts, which -O strips
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        f"from test_rootsys import {fault}",
        "from subadjoint.liecore import ConsistencyError",
        "if __debug__:",
        "    sys.exit('not running under -O')",
        "try:",
        f"    {fault}()",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit('non-integral root data accepted')",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_coroot_coords_integral_and_cached():
    rs = build_root_system("F4")
    for r in rs.all_roots():
        cor = rs.coroot_coords(r)
        assert all(type(c) is int for c in cor)
        assert rs.coroot_coords(r) is cor
        # <r, r^vee> = 2
        assert sum(c * rs.pairing(r, i) for i, c in enumerate(cor)) == 2


def test_two_branch_nodes_rejected():
    # simply laced tree with branch nodes 2 and 3: no A-D-E type
    n = 6
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in ((0, 2), (1, 2), (2, 3), (3, 4), (3, 5)):
        cartan[i][j] = cartan[j][i] = -1
    with pytest.raises(ConsistencyError, match="one branch node"):
        classify_dynkin(cartan)


def test_weight_conversion_a1():
    rs = build_root_system("A1")
    w = WeightVector((Fraction(1),), "fundamental")
    s = to_simple_root_coords(w, rs)
    assert s.coords == (Fraction(1, 2),)


def test_weight_conversion_a2():
    rs = build_root_system("A2")
    w = WeightVector((Fraction(1), Fraction(0)), "fundamental")
    s = to_simple_root_coords(w, rs)
    assert s.coords == (Fraction(2, 3), Fraction(1, 3))


def test_weight_conversion_roundtrip():
    rs = build_root_system("F4")
    for i in range(4):
        w = WeightVector(tuple(Fraction(int(i == j)) for j in range(4)),
                         "fundamental")
        back = to_fundamental_coords(to_simple_root_coords(w, rs), rs)
        assert back.coords == w.coords


def test_simple_roots_are_unit_vectors_in_simple_coords():
    rs = build_root_system("B4")
    for i in range(rs.rank):
        alpha = tuple(int(i == j) for j in range(rs.rank))
        w = WeightVector(
            tuple(rs.pairing(alpha, j) for j in range(rs.rank)), "fundamental"
        )
        s = to_simple_root_coords(w, rs)
        assert s.coords == tuple(Fraction(int(i == j)) for j in range(rs.rank))


def test_algebra_dimension_table():
    dims = {"A2": 8, "B3": 21, "C3": 21, "D4": 28, "G2": 14, "F4": 52,
            "E6": 78, "E7": 133}
    for label, dim in dims.items():
        rs = build_root_system(label)
        assert rs.rank + 2 * len(rs.positive_roots) == dim


def test_classify_dynkin_components():
    # A3 path
    cart = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    comps = classify_dynkin(cart)
    assert len(comps) == 1 and comps[0].type_label == "A3"
    # A1 x A1
    cart = [[2, 0], [0, 2]]
    comps = classify_dynkin(cart)
    assert sorted(c.type_label for c in comps) == ["A1", "A1"]
    # B2 with the short root's row carrying -2
    cart = [[2, -1], [-2, 2]]
    comps = classify_dynkin(cart)
    assert comps[0].type_label == "B2"
    assert comps[0].nodes == (0, 1)  # node 0 long


def test_classify_dynkin_on_built_systems():
    for label in ("B4", "D5", "E6", "E7", "F4", "G2"):
        rs = build_root_system(label)
        comps = classify_dynkin([list(r) for r in rs.cartan])
        assert len(comps) == 1
        assert comps[0].type_label == label


def test_node_orbits():
    assert node_orbit("A", 5, 2) == frozenset({2})
    assert node_orbit("A", 5, 0) == frozenset({0, 4})
    assert node_orbit("D", 6, 5) == frozenset({4, 5})
    assert node_orbit("D", 4, 0) == frozenset({0, 2, 3})
    assert node_orbit("E", 6, 0) == frozenset({0, 5})
    assert node_orbit("E", 7, 0) == frozenset({0})


def test_root_system_is_collectable():
    # the root set is cached on the instance, not in a global cache; a type
    # no other test builds, so no equal instance can stand in for this one
    rs = build_root_system("A11")
    assert rs.is_root(rs.highest_root)
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("label", ["B3", "F4", "G2"])
def test_integer_form_matches_fraction_formula(label):
    rs = build_root_system(label)

    def form(x, y):
        return sum(
            (Fraction(x[i]) * Fraction(y[j]) * rs.half_lengths[i]
             * rs.cartan[i][j]
             for i in range(rs.rank) for j in range(rs.rank)),
            Fraction(0),
        )

    roots = rs.all_roots()
    for x in roots:
        for y in roots:
            assert Fraction(rs.form6(x, y), 6) == form(x, y)


# the tuple-keyed height recursion that ChevalleyConstants ran on before it
# moved to root indices, kept here as the reference for chevalley_table
def _reference_table(rs):
    """(labels, brackets) of chevalley_table(rs) from the tuple recursion
    over every pair of roots."""
    def shift(x, y, sign=1):
        return tuple(a + sign * b for a, b in zip(x, y))

    def neg(x):
        return tuple(-a for a in x)

    def order(r):
        return (sum(r), r)

    positive = set(rs.positive_roots)
    extraspecial = {}
    for a in rs.positive_roots:
        for s in rs.positive_roots:
            b = shift(s, a, -1)
            if b in positive and order(a) <= order(b):
                extraspecial.setdefault(s, (a, b))
    norm6 = {r: rs.form6(r, r) for r in rs.all_roots()}
    memo = {}

    def quotient(num, den):
        q, r = divmod(num, den)
        assert not r
        return q

    def n(a, b):
        s = shift(a, b)
        if not rs.is_root(s):
            return 0
        if (a, b) not in memo:
            val = compute(a, b, s)
            memo[(a, b)], memo[(b, a)] = val, -val
        return memo[(a, b)]

    def compute(a, b, s):
        apos, bpos = sum(a) > 0, sum(b) > 0
        if apos and bpos:
            if order(a) > order(b):
                return -n(b, a)
            xi, eta = extraspecial[s]
            if (a, b) == (xi, eta):
                return string_length_down(rs, b, a) + 1
            # Jacobi on (e_{-xi}, e_a, e_b)
            rhs = 0
            if rs.is_root(shift(a, xi, -1)):
                rhs -= n(neg(xi), a) * n(shift(a, xi, -1), b)
            if rs.is_root(shift(b, xi, -1)):
                rhs -= n(b, neg(xi)) * n(shift(b, xi, -1), a)
            return quotient(rhs, n(s, neg(xi)))
        if not apos and not bpos:
            return -n(neg(a), neg(b))
        if not apos:
            return -n(b, a)
        mu = neg(b)
        if sum(s) > 0:
            return quotient(n(s, mu) * norm6[s], norm6[a])
        u = neg(s)
        return quotient(-n(a, u) * norm6[u], norm6[mu])

    roots = rs.all_roots()
    index = {r: rs.rank + i for i, r in enumerate(roots)}
    brackets = {}
    for r in roots:
        for i in range(rs.rank):
            c = rs.pairing(r, i)
            if c:
                brackets[(i, index[r])] = {index[r]: c}
    for ia, a in enumerate(roots):
        for b in roots[ia + 1:]:
            s = shift(a, b)
            if not any(s):
                brackets[(index[a], index[b])] = {
                    i: c for i, c in enumerate(rs.coroot_coords(a)) if c}
            elif rs.is_root(s):
                brackets[(index[a], index[b])] = {index[s]: n(a, b)}
    labels = tuple(f"h{i + 1}" for i in range(rs.rank)) + tuple(
        "e" + "".join(f"{c:+d}" for c in r) for r in roots)
    return labels, brackets


@pytest.mark.parametrize("label", [
    "A1", "A2", "C3", "G2", "B3", "B4", "B5", "B6", "B7", "B8",
    "D4", "D5", "D6", "D7", "D8", "F4", "E6", "E7", "E8",
])
def test_chevalley_table_matches_tuple_recursion(label):
    # same labels, same constants and the same key order as the reference
    rs = build_root_system(label)
    table = chevalley_table(rs)
    labels, brackets = _reference_table(rs)
    assert table.labels == labels
    assert list(table.brackets.items()) == list(brackets.items())
