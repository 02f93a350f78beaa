"""The graded algebra g = (C Id_V + l) |x V with V an abelian ideal.

Basis order: Id_V, then the l basis (coroots of the simple system, then
root vectors), then the V basis (degree-1 root vectors of s in table
order).  Degrees: Id and the l Cartan sit in degree 0, root vectors of l in
their l-degree, V_j in degree j.  Note V_0 lands in degree 0: the grading
is not the osculating level; the osculating level (V_j at level j+1) is
what the operator A = ad(v0) shifts by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cases import SubadjointCase, _l_basis_vectors
from .liecore import LieAlgebraTable, _check, check_jacobi
from .linalg import SparseRationalMatrix, Vec, span, vec_add_scaled


@dataclass
class GAlgebra:
    case: SubadjointCase
    table: LieAlgebraTable
    degree: list            # degree per basis index
    osc_level: list         # osculating level per basis index
    id_index: int
    l_offset: int           # first l basis index
    v_offset: int           # first V basis index
    l_basis_keys: tuple     # ("h", root) | ("e", root) per l position
    v0_index: int           # g-basis index of v0

    # index lists per distinguished subspace
    l1_indices: tuple
    lminus1_indices: tuple
    l0_indices: tuple        # includes the Cartan part of l
    V_level_indices: dict    # j -> tuple of g-basis indices

    def components(self) -> dict:
        out: dict[int, list] = {}
        for i, d in enumerate(self.degree):
            out.setdefault(d, []).append(i)
        return {d: tuple(v) for d, v in sorted(out.items())}

    def component_dims(self) -> dict:
        return {d: len(ix) for d, ix in self.components().items()}


def build_g(case: SubadjointCase) -> GAlgebra:
    """Assemble the table of g from the ambient s, abelianizing V."""
    st = case.s_table
    l_keys = [("h", b) for b in case.l_simple_roots] + [
        ("e", r) for r in case.l_roots
    ]
    nl = len(l_keys)
    nV = case.dim_V
    dim = 1 + nl + nV
    l_offset, v_offset = 1, 1 + nl
    l_pos = {key: l_offset + i for i, key in enumerate(l_keys)}
    v_pos = {r: v_offset + i for i, r in enumerate(case.V_roots)}

    # every key (i, j) has i < j: Id is index 0, l indices precede V
    # indices, and the l table stores its pairs with i < j
    brackets: dict[tuple[int, int], Vec] = {}

    # [Id, v] = v for v in V; [Id, l] = 0
    for r in case.V_roots:
        brackets[(0, v_pos[r])] = {v_pos[r]: 1}
    # [l, l] from the restricted table of l, [l, V] from s; [V, V] = 0 by
    # construction of the semidirect product
    l_rows: dict[int, list] = {}  # i -> [(j, [l_i, l_j])], j ascending
    for (i, j), b in sorted(case.l_table.brackets.items()):
        l_rows.setdefault(i, []).append((j, b))
    l_vecs = _l_basis_vectors(case)
    nh = len(case.l_simple_roots)
    v_idx = [case.root_index(r) for r in case.V_roots]
    s_index_to_v = {k: v_offset + i for i, k in enumerate(v_idx)}
    for i in range(nl):
        for j, b in l_rows.get(i, ()):
            if b:
                brackets[(l_offset + i, l_offset + j)] = {
                    l_offset + k: c for k, c in b.items()}
        # for a root vector e_r of l, [e_r, e_v] is one stored entry of s
        x = case.root_index(l_keys[i][1]) if i >= nh else None
        for k in v_idx:
            if x is None:
                b = st.bracket(l_vecs[i], {k: 1})
            elif x < k:
                b = st.brackets.get((x, k))
            else:
                b = {w: -c for w, c in st.brackets.get((k, x), {}).items()}
            if b:
                brackets[(l_offset + i, s_index_to_v[k])] = {
                    s_index_to_v[w]: c for w, c in b.items()}

    labels = ["Id"] + [
        ("H" if k[0] == "h" else "x") + "".join(f"{c:+d}" for c in k[1])
        for k in l_keys
    ] + ["v" + "".join(f"{c:+d}" for c in r) for r in case.V_roots]
    table = LieAlgebraTable(dim=dim, labels=tuple(labels), brackets=brackets)

    degree = [0] * dim
    osc = [0] * dim
    for i, key in enumerate(l_keys):
        d = 0 if key[0] == "h" else case.l_degree[key[1]]
        degree[l_offset + i] = d
        osc[l_offset + i] = d
    for r in case.V_roots:
        j = case.V_root_level[r]
        degree[v_pos[r]] = j if j else 0
        osc[v_pos[r]] = j + 1

    l1_idx = tuple(l_pos[("e", r)] for r in case.l1_roots())
    lm1_idx = tuple(l_pos[("e", r)] for r in case.lminus1_roots())
    l0_idx = tuple(
        [l_pos[("h", b)] for b in case.l_simple_roots]
        + [l_pos[("e", r)] for r in case.l0_roots()]
    )
    vlev = {}
    for r in case.V_roots:
        vlev.setdefault(case.V_root_level[r], []).append(v_pos[r])
    g = GAlgebra(
        case=case,
        table=table,
        degree=degree,
        osc_level=osc,
        id_index=0,
        l_offset=l_offset,
        v_offset=v_offset,
        l_basis_keys=tuple(l_keys),
        v0_index=v_pos[case.v0_root],
        l1_indices=l1_idx,
        lminus1_indices=lm1_idx,
        l0_indices=l0_idx,
        V_level_indices={j: tuple(v) for j, v in sorted(vlev.items())},
    )
    _validate_g(g)
    return g


def _validate_g(g: GAlgebra) -> None:
    case = g.case
    t = g.table
    dims = g.component_dims()
    d1 = case.dim_l1
    expected = {-1: d1, 0: 2 + (case.dim_l - 2 * d1), 1: 2 * d1, 2: d1, 3: 1}
    _check(dims == expected, f"g component dims {dims}, expected {expected}")

    # V abelian ideal: [V, V] = 0 and [g, V] in V
    vidx = set(range(g.v_offset, t.dim))
    for (i, j), vec in t.brackets.items():
        _check(not (i in vidx and j in vidx), "V not abelian in g")
        if i in vidx or j in vidx:
            _check(set(vec) <= vidx, "V not an ideal")
    # Id acts as the identity on V and zero on l
    for j in range(t.dim):
        want = {j: 1} if j in vidx else {}
        _check(t.bracket_basis(0, j) == want, "Id does not act as 0 + Id_V")
    # degree additivity on basis brackets
    for (i, j), vec in t.brackets.items():
        dd = g.degree[i] + g.degree[j]
        _check(all(g.degree[k] == dd for k in vec), "grading not additive")


@dataclass
class OperatorA:
    """ad(v0) on g: squares to zero, shifts osculating level by one."""

    g: GAlgebra
    columns: list  # column j = A(e_j) as sparse Vec

    def apply(self, x: Vec) -> Vec:
        out: Vec = {}
        for j, c in x.items():
            vec_add_scaled(out, self.columns[j], c)
        return out

    def squared_is_zero(self) -> bool:
        return all(not self.apply(col) for col in self.columns)

    def level_shift_ok(self) -> bool:
        for j, col in enumerate(self.columns):
            for k in col:
                if self.g.osc_level[k] != self.g.osc_level[j] + 1:
                    return False
        return True


def operator_a(g: GAlgebra) -> OperatorA:
    v0 = {g.v0_index: 1}
    return OperatorA(g=g, columns=[g.table.bracket(v0, {j: 1})
                                   for j in range(g.table.dim)])


# --------------------------------------------------------------------------
# Structure identity suite
# --------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    check_id: str
    status: str  # "PASS" | "FAIL"
    detail: dict = field(default_factory=dict)


def verify_structure_identities(g: GAlgebra) -> list[IdentityCheck]:
    """The bracket identities used by the vanishing argument, checked exactly.

    (a) [a + t a.v0, b + t b.v0] = 0 coefficientwise in t;
    (b) V_1 = {u in g_1 : [u, V_2] = 0};
    (c) l_1 and V_1 meet only in 0 inside g_1;
    (d) [v0, l_1] = V_1;
    (e) A^2 = 0, so exp(s v0) = Id + s A.
    """
    t = g.table
    out = []
    v0 = {g.v0_index: 1}

    # (a): coefficients of t^0, t^1, t^2 vanish for all basis pairs in l_1
    bad = None
    dots = {a: t.bracket({a: 1}, v0) for a in g.l1_indices}
    for a in g.l1_indices:
        for b in g.l1_indices:
            av, bv = {a: 1}, {b: 1}
            c0 = t.bracket(av, bv)
            c1 = t.bracket(av, dots[b])
            vec_add_scaled(c1, t.bracket(dots[a], bv), 1)
            c2 = t.bracket(dots[a], dots[b])
            if c0 or c1 or c2:
                bad = (a, b)
                break
        if bad:
            break
    out.append(IdentityCheck(
        "eII-coefficients", "FAIL" if bad else "PASS",
        {"witness": bad} if bad else {"pairs": len(g.l1_indices) ** 2},
    ))

    # (b): annihilator of V_2 inside g_1
    g1 = [i for i, d in enumerate(g.degree) if d == 1]
    V2 = g.V_level_indices[2]
    ker = SparseRationalMatrix.from_columns(
        [{(wi, m): c for wi, w in enumerate(V2)
          for m, c in t.bracket_basis(u, w).items()} for u in g1]
    ).kernel()
    ann = span(t.dim, ({g1[i]: c for i, c in k.items()} for k in ker))
    V1 = span(t.dim, ({i: 1} for i in g.V_level_indices[1]))
    out.append(IdentityCheck(
        "v1-annihilator-of-v2", "PASS" if ann == V1 else "FAIL",
        {"annihilator_dim": ann.rank, "dim_V1": V1.rank},
    ))

    # (c): l_1 and V_1 transverse; both are spanned by basis vectors, so
    # their intersection is spanned by the basis vectors they share
    shared = len(set(g.l1_indices) & set(g.V_level_indices[1]))
    out.append(IdentityCheck(
        "l1-V1-intersection", "FAIL" if shared else "PASS",
        {"intersection_dim": shared},
    ))

    # (d): A l_1 = V_1
    A = operator_a(g)
    img = span(t.dim, (A.columns[a] for a in g.l1_indices))
    out.append(IdentityCheck(
        "v0-bracket-image", "PASS" if img == V1 else "FAIL",
        {"image_dim": img.rank},
    ))

    # (e): A^2 = 0 and the level shift
    sq = A.squared_is_zero()
    out.append(IdentityCheck("a-squared-zero", "PASS" if sq else "FAIL", {}))
    out.append(IdentityCheck(
        "a-level-shift", "PASS" if A.level_shift_ok() else "FAIL", {}
    ))
    return out


def verify_g_module_structure(g: GAlgebra) -> list[IdentityCheck]:
    """g_0-level checks: faithful action on g_1, quotient action, c functional."""
    t = g.table
    out = []
    g0 = [i for i, d in enumerate(g.degree) if d == 0]
    g1 = [i for i, d in enumerate(g.degree) if d == 1]

    # ker(ad: g_0 -> gl(g_1)) = 0; 'grAut(g_+) -> GL(g_1) injective' at the
    # algebra level, using that g_1 generates g_+
    ker = SparseRationalMatrix.from_columns(
        [{(u, m): c for u in g1 for m, c in t.bracket_basis(x, u).items()}
         for x in g0]
    ).kernel()
    out.append(IdentityCheck(
        "ad-g0-faithful-on-g1", "PASS" if not ker else "FAIL",
        {"kernel_dim": len(ker)},
    ))

    # [g_0, V_1] stays in V_1 and the induced action on g_1/V_1 kills
    # V_0 + C Id, i.e. factors through l_0
    V1set = set(g.V_level_indices[1])
    ok_pres = True
    for x in g0:
        for u in g.V_level_indices[1]:
            if not set(t.bracket_basis(x, u)) <= V1set:
                ok_pres = False
    ok_factor = True
    killers = [g.id_index] + list(g.V_level_indices[0])
    for x in killers:
        for u in g1:
            br = t.bracket_basis(x, u)
            if any(k not in V1set for k in br):
                ok_factor = False
    out.append(IdentityCheck(
        "g0-preserves-tensor-split",
        "PASS" if (ok_pres and ok_factor) else "FAIL",
        {"V1_stable": ok_pres, "quotient_is_l0_action": ok_factor},
    ))

    # c functional inside g: [b, v0] = c(b) v0 for b in l_0
    ok_c = True
    vals = {}
    for x in g.l0_indices:
        br = t.bracket_basis(x, g.v0_index)
        if set(br) - {g.v0_index}:
            ok_c = False
        vals[t.labels[x]] = br.get(g.v0_index, 0)
    out.append(IdentityCheck(
        "c-functional", "PASS" if ok_c else "FAIL",
        {"nonzero_values": sum(1 for v in vals.values() if v)},
    ))
    return out


def g_jacobi_violations(g: GAlgebra) -> list:
    return check_jacobi(g.table)
