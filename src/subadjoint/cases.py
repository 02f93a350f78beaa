"""Construction of the subadjoint cases: V, v0, the 3-graded l, V_0..V_3.

The ambient simple algebra s is built from its Chevalley table; V is the
degree-1 piece of the contact grading.  The semisimple part l of s_0 is
recovered from the degree-zero root subsystem, and its 3-grading comes from
the grading element z dual to the marked nodes, which are read off from the
weight of the lowest weight vector v0.  Every derived structure is
cross-checked against an independent construction (line stabilizers for the
parabolics, iterated brackets for the osculating decomposition, a hardcoded
marked-node table per case).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .liecore import (
    Grading,
    LieAlgebraTable,
    Subspace,
    contact_grading,
    line_stabilizer,
)
from .linalg import (
    RrefBasis,
    Vec,
    mat_inverse,
    mat_vec,
    vec_add_scaled,
    vec_scale,
)
from .rootsys import (
    RootSystem,
    WeightVector,
    build_root_system,
    chevalley_table,
    classify_dynkin,
    node_orbit,
    root_height,
)


class CaseExcludedError(ValueError):
    """Raised for labels with no subadjoint case."""


class CaseConsistencyError(RuntimeError):
    """The built case or its g disagrees with an independent construction:
    grading bookkeeping, line stabilizers, iterated brackets or the
    marked-node table.
    """


def _check(ok: bool, message: str) -> None:
    """Raise CaseConsistencyError unless ok (an assert would vanish under -O)."""
    if not ok:
        raise CaseConsistencyError(message)


# marked-node oracle per case: (factor type, 1-based Bourbaki index of the
# marked node), independent of the computed grading data
def _expected_factors(series: str, rank: int) -> list[tuple[str, int]]:
    if series == "B":
        if rank == 3:
            return [("A1", 1), ("A1", 1)]
        return [("A1", 1), (f"B{rank - 2}", 1)]
    if series == "D":
        if rank == 4:
            return [("A1", 1), ("A1", 1), ("A1", 1)]
        if rank == 5:
            return [("A1", 1), ("A3", 2)]
        if rank == 6:
            return [("A1", 1), ("D4", 1)]
        return [("A1", 1), (f"D{rank - 2}", 1)]
    if series == "F":
        return [("C3", 3)]
    return {6: [("A5", 3)], 7: [("D6", 6)], 8: [("E7", 7)]}[rank]


@dataclass
class SubadjointCase:
    """One subadjoint case with its graded data inside the ambient s."""

    s_label: str
    rs: RootSystem
    s_table: LieAlgebraTable
    contact: Grading
    V_roots: tuple           # degree-1 roots, table order
    V: Subspace
    v0_root: tuple
    v0_index: int            # index in s_table basis
    vhi_root: tuple
    l_simple_roots: tuple    # roots of s spanning the simple system of l
    l_cartan: tuple          # Cartan matrix of l in that order
    l_components: tuple      # DynkinComponent per simple ideal
    marked: tuple            # indices into l_simple_roots (the set I)
    embedding_weight: WeightVector       # omega_* in l fundamental coords
    embedding_weight_simple: WeightVector  # same in l simple-root coords
    z: Vec                   # grading element of l, s coordinates
    l_roots: tuple           # all roots of l
    l_degree: dict           # root -> degree in {-1, 0, 1}
    l_grading: dict = field(default_factory=dict)   # j -> Subspace of s
    V_decomp: dict = field(default_factory=dict)    # j -> Subspace of s
    V_root_level: dict = field(default_factory=dict)  # root -> j in 0..3
    c_functional: dict = field(default_factory=dict)  # l_0 label -> int
    l_table: LieAlgebraTable | None = None  # [l, l] over the l basis
    _l_weights: dict = field(default_factory=dict, repr=False,
                             compare=False)  # root -> weight_in_l_coords

    # ---- derived basis bookkeeping -------------------------------------
    @property
    def dim_V(self) -> int:
        return len(self.V_roots)

    @property
    def dim_l1(self) -> int:
        return sum(1 for r, d in self.l_degree.items() if d == 1)

    @property
    def dim_l(self) -> int:
        return len(self.l_roots) + len(self.l_simple_roots)

    def l1_roots(self) -> list[tuple]:
        return [r for r in self.l_roots if self.l_degree[r] == 1]

    def lminus1_roots(self) -> list[tuple]:
        return [r for r in self.l_roots if self.l_degree[r] == -1]

    def l0_roots(self) -> list[tuple]:
        return [r for r in self.l_roots if self.l_degree[r] == 0]

    def root_index(self, r: tuple) -> int:
        return self._root_index[r]

    def e(self, r: tuple) -> Vec:
        return {self._root_index[r]: 1}

    def root_of_index(self, k: int) -> tuple:
        """The root whose root vector is s basis vector k."""
        if k < self.rs.rank:
            raise ValueError(f"s basis vector {k} is a Cartan element")
        return self._s_roots[k - self.rs.rank]

    def coroot_vec(self, r: tuple) -> Vec:
        cor = self.rs.coroot_coords(r)
        return {i: c for i, c in enumerate(cor) if c}

    def l_coords(self, v: Vec) -> Vec:
        """Coordinates of an s-vector lying in l over the l basis.

        The l basis is `_l_basis_vectors`: the simple coroots of l, then the
        root vectors of l.  Root-vector entries map by position; the Cartan
        part h gets t = C_l^{-T} (<beta_j, h>)_j.  Raises ValueError if v has
        a root component outside l or h is not sum_i t_i beta_i^vee.
        """
        rank, nh = self.rs.rank, len(self.l_simple_roots)
        h = {k: c for k, c in v.items() if k < rank}
        out: Vec = {}
        if h:
            pair = [sum(c * self.rs.pairing(b, k) for k, c in h.items())
                    for b in self.l_simple_roots]
            inv = self._l_cartan_inv
            back: Vec = {}
            for i, b in enumerate(self.l_simple_roots):
                t = sum((inv[j][i] * pair[j] for j in range(nh)), Fraction(0))
                if t:
                    out[i] = t
                    vec_add_scaled(back, self.coroot_vec(b), t)
            if back != h:
                raise ValueError("Cartan part outside the coroot span of l")
        for k, c in v.items():
            if k >= rank:
                pos = self._l_root_pos.get(k)
                if pos is None:
                    raise ValueError(
                        f"root {self.root_of_index(k)} is not a root of l")
                out[nh + pos] = c
        return out

    def weight_in_l_coords(self, weight_root) -> tuple:
        """Simple-root coordinates (over l) of an s-weight restricted to l,
        computed once per root: C_l^{-1} applied to the integer pairings
        <weight_root, b^vee> with the simple roots b of l."""
        out = self._l_weights.get(weight_root)
        if out is None:
            f = [_cartan_entry(self.rs, b, weight_root)
                 for b in self.l_simple_roots]
            out = self._l_weights[weight_root] = tuple(
                mat_vec(self._l_cartan_inv, f))
        return out

    def ideal_of_root(self, r: tuple) -> int:
        """Index of the simple ideal containing the root r of l."""
        return self._ideal_of_root[r]


def _degree_zero_simple_system(rs: RootSystem, degree: dict) -> list[tuple]:
    zero_pos = [r for r in rs.positive_roots if degree[r] == 0]
    zero_set = set(zero_pos)
    simple = []
    for g in zero_pos:
        decomposable = any(
            tuple(x - y for x, y in zip(g, a)) in zero_set for a in zero_pos
            if a != g and all(x - y >= 0 for x, y in zip(g, a))
            and any(x - y for x, y in zip(g, a))
        )
        if not decomposable:
            simple.append(g)
    return sorted(simple, key=lambda r: (root_height(r), r))


def build_case(label: str) -> SubadjointCase:
    """Construct the case for s of the given type; raises on excluded types."""
    series = label[:1].upper()
    if series == "G":
        raise CaseExcludedError(
            "excluded case: for type G2 the subadjoint variety is the twisted "
            "cubic in P3 (case (0) of the classification), outside this toolkit"
        )
    if series in ("A", "C"):
        raise CaseExcludedError(
            f"excluded case: types A and C carry no subadjoint variety "
            f"(the degree-1 contact component is not an irreducible "
            f"s_0-module there); got {label!r}"
        )
    rs = build_root_system(label)
    s_table = chevalley_table(rs)
    contact = contact_grading(s_table, rs)

    s_roots = tuple(rs.all_roots())
    root_index = {r: rs.rank + i for i, r in enumerate(s_roots)}

    degree = {}
    theta = rs.highest_root
    theta_cor = rs.coroot_coords(theta)
    for r in s_roots:
        d = _cartan_entry(rs, theta, r)
        # coroot-coefficient route must agree with the symmetric-form route
        _check(d == sum(theta_cor[j] * rs.pairing(r, j) for j in range(rs.rank)),
               "contact degree routes disagree")
        degree[r] = d

    V_roots = tuple(r for r in s_roots if degree[r] == 1)

    # the semisimple part l of s_0: degree-zero root subsystem
    l_simple = _degree_zero_simple_system(rs, degree)
    l_roots = tuple(r for r in s_roots if degree[r] == 0)
    l_cartan = [[_cartan_entry(rs, a, b) for b in l_simple] for a in l_simple]
    comps = classify_dynkin(l_cartan)

    # lowest/highest weight vectors of V under l: killed by all lowering
    # (resp. raising) simple root vectors of l
    lows = [
        v for v in V_roots
        if all(not rs.is_root(tuple(x - y for x, y in zip(v, b))) for b in l_simple)
    ]
    his = [
        v for v in V_roots
        if all(not rs.is_root(tuple(x + y for x, y in zip(v, b))) for b in l_simple)
    ]
    _check(len(lows) == 1, f"lowest weight vector not unique: {lows}")
    _check(len(his) == 1, f"highest weight vector not unique: {his}")
    v0_root, vhi_root = lows[0], his[0]

    # embedding weight omega_*: v0 is a lowest weight vector, so the
    # restriction of its weight to the Cartan of l is -omega_*
    l_cartan_inv = mat_inverse(l_cartan)
    fund = [-_cartan_entry(rs, b, v0_root) for b in l_simple]
    _check(all(x >= 0 for x in fund),
           f"v0 is not a lowest weight vector: {fund}")
    marked = tuple(i for i, x in enumerate(fund) if x > 0)
    embedding_weight = WeightVector(tuple(fund), "fundamental")
    embedding_weight_simple = WeightVector(
        tuple(mat_vec(l_cartan_inv, fund)), "simple"
    )

    # each simple ideal carries exactly one marked node
    node_comp = {}
    for ci, comp in enumerate(comps):
        for n in comp.nodes:
            node_comp[n] = ci
    per_comp = {ci: 0 for ci in range(len(comps))}
    for m in marked:
        per_comp[node_comp[m]] += 1
    _check(all(v == 1 for v in per_comp.values()),
           "expected exactly one marked node per simple ideal")

    # grading element z: the element sum_i t_i beta_i^vee of the coroot span
    # of l with <beta_j, z> = [j in I], so t = C_l^{-T} e_I
    z: Vec = {}
    for i, b in enumerate(l_simple):
        t = sum((l_cartan_inv[j][i] for j in marked), Fraction(0))
        cor = rs.coroot_coords(b)
        vec_add_scaled(z, {k: c for k, c in enumerate(cor) if c}, t)

    # l-grading by z eigenvalues
    def z_eigenvalue(r) -> Fraction:
        return sum(
            (z[k] * rs.pairing(r, k) for k in z), Fraction(0)
        )

    l_degree = {}
    for r in l_roots:
        ev = z_eigenvalue(r)
        _check(ev.denominator == 1 and abs(ev) <= 1,
               f"z eigenvalue {ev} on the l root {r}")
        l_degree[r] = int(ev)

    case = SubadjointCase(
        s_label=f"{rs.series}{rs.rank}",
        rs=rs,
        s_table=s_table,
        contact=contact,
        V_roots=V_roots,
        V=Subspace.from_vectors(
            s_table.dim, [{root_index[r]: 1} for r in V_roots]
        ),
        v0_root=v0_root,
        v0_index=root_index[v0_root],
        vhi_root=vhi_root,
        l_simple_roots=tuple(l_simple),
        l_cartan=tuple(tuple(r) for r in l_cartan),
        l_components=tuple(comps),
        marked=marked,
        embedding_weight=embedding_weight,
        embedding_weight_simple=embedding_weight_simple,
        z=z,
        l_roots=l_roots,
        l_degree=l_degree,
    )
    case._root_index = root_index
    case._s_roots = s_roots
    case._l_root_pos = {root_index[r]: i for i, r in enumerate(l_roots)}
    case._l_cartan_inv = l_cartan_inv
    ideal_of = {}
    for r in l_roots:
        coords = case.weight_in_l_coords(r)
        cis = {node_comp[i] for i, c in enumerate(coords) if c}
        _check(len(cis) == 1, f"l root {r} meets {len(cis)} simple ideals")
        ideal_of[r] = cis.pop()
    case._ideal_of_root = ideal_of
    case._node_comp = node_comp
    case.l_table = _restricted_table(case)

    _finish_gradings(case)
    _validate_case(case)
    return case


def _cartan_entry(rs: RootSystem, a: tuple, b: tuple) -> int:
    """<b, a^vee> = 2 (a, b) / (a, a) for roots a, b: an integer, so the
    division of the integer forms 6(., .) is exact or raises."""
    q, rem = divmod(2 * rs.form6(a, b), rs.form6(a, a))
    _check(not rem, f"non-integral Cartan entry <{b}, {a}^vee>")
    return q


def _finish_gradings(case: SubadjointCase) -> None:
    rs, s = case.rs, case.s_table
    dim = s.dim

    def z_eig(r) -> Fraction:
        return sum((case.z[k] * rs.pairing(r, k) for k in case.z), Fraction(0))

    comps: dict[int, list] = {}
    for r in case.l_roots:
        comps.setdefault(case.l_degree[r], []).append(case.e(r))
    for b in case.l_simple_roots:
        comps.setdefault(0, []).append(case.coroot_vec(b))
    case.l_grading = {
        j: Subspace.from_vectors(dim, vs) for j, vs in comps.items()
    }

    base = z_eig(case.v0_root)
    levels: dict[int, list] = {}
    for v in case.V_roots:
        j = z_eig(v) - base
        _check(j.denominator == 1 and 0 <= j <= 3,
               f"osculating level {j} of the V root {v}")
        case.V_root_level[v] = int(j)
        levels.setdefault(int(j), []).append(case.e(v))
    case.V_decomp = {
        j: Subspace.from_vectors(dim, vs) for j, vs in levels.items()
    }

    # the functional c on l_0 with [b, v0] = c(b) v0
    v0 = case.e(case.v0_root)
    cf = {}
    for r in case.l0_roots():
        br = s.bracket(case.e(r), v0)
        _check(set(br) <= {case.v0_index}, "l_0 moves the v0 line")
        cf[("e", r)] = br.get(case.v0_index, 0)
    for b in case.l_simple_roots:
        br = s.bracket(case.coroot_vec(b), v0)
        _check(set(br) <= {case.v0_index}, "l_0 moves the v0 line")
        cf[("h", b)] = br.get(case.v0_index, 0)
    case.c_functional = cf


def _validate_case(case: SubadjointCase) -> None:
    rs, s = case.rs, case.s_table
    dim = s.dim
    d1 = case.dim_l1
    dims_V = {j: sp.dim for j, sp in case.V_decomp.items()}
    _check(dims_V == {0: 1, 1: d1, 2: d1, 3: 1}, f"V level dims {dims_V}")
    _check(case.dim_V == 2 * d1 + 2, "dim V != 2 dim l_1 + 2")
    _check(set(case.l_grading) == {-1, 0, 1}, "l is not 3-graded")
    _check(case.l_grading[1].dim == case.l_grading[-1].dim == d1,
           "dim l_1 != dim l_-1")

    # marked-node oracle (Prop-2.4-style table, up to diagram automorphisms)
    expected = _expected_factors(rs.series, rs.rank)
    got = []
    for ci, comp in enumerate(case.l_components):
        mk = [m for m in case.marked if case._node_comp[m] == ci]
        _check(len(mk) == 1, f"simple ideal {ci} has {len(mk)} marked nodes")
        pos = comp.nodes.index(mk[0])
        got.append((comp.type_label, pos))
    def orbit_key(item):
        t, pos = item
        series, rank = t[0], int(t[1:])
        return (t, tuple(sorted(node_orbit(series, rank, pos))))
    want = sorted(orbit_key((t, p - 1)) for t, p in expected)
    have = sorted(orbit_key(g) for g in got)
    _check(have == want, f"marked nodes {have}, table says {want}")

    # stabilizer cross-checks: p = l_{-1} + l_0 fixes the line through v0,
    # and the opposite parabolic fixes the highest weight line
    l_basis = _l_basis_vectors(case)

    def in_s(xcoeffs: Vec) -> Vec:
        x: Vec = {}
        for i, c in xcoeffs.items():
            vec_add_scaled(x, l_basis[i], c)
        return x

    def act(xcoeffs: Vec, v: Vec) -> Vec:
        return s.bracket(in_s(xcoeffs), v)

    def stabilizer_in_s(v: Vec) -> Subspace:
        stab = line_stabilizer(case.l_table, v, act, dim)
        return Subspace.from_vectors(
            dim, [in_s(row) for row in stab.basis_vectors()])

    v0 = case.e(case.v0_root)
    p_expected = case.l_grading[-1].span_with(case.l_grading[0])
    _check(stabilizer_in_s(v0) == p_expected,
           "line stabilizer disagrees with l_{-1}+l_0")
    q_expected = case.l_grading[0].span_with(case.l_grading[1])
    _check(stabilizer_in_s(case.e(case.vhi_root)) == q_expected,
           "opposite stabilizer disagrees")

    # z centralizes l_0 and has spectrum {-1,0,1} on l (by construction of
    # l_degree; here we check the bracket action agrees)
    for j in (-1, 0, 1):
        for vec in case.l_grading[j].basis_vectors():
            _check(s.bracket(case.z, vec) == vec_scale(vec, j),
                   f"z does not act by {j} on l_{j}")

    # osculating route: V_{j+1} = [l_1, V_j] starting from V_0 = <v0>
    cur = case.V_decomp[0]
    l1_vecs = [case.e(r) for r in case.l1_roots()]
    for j in range(3):
        nxt = []
        for a in l1_vecs:
            for w in cur.basis_vectors():
                b = s.bracket(a, w)
                if b:
                    nxt.append(b)
        cur = Subspace.from_vectors(dim, nxt)
        _check(cur == case.V_decomp[j + 1],
               f"bracket route disagrees with z-eigenspace route at level "
               f"{j + 1}")

    # degree clipping: [l_1, V_3] = 0 and [l_{-1}, V_0] = 0
    for a in l1_vecs:
        for w in case.V_decomp[3].basis_vectors():
            _check(not s.bracket(a, w), "[l_1, V_3] != 0")
    for r in case.lminus1_roots():
        _check(not s.bracket(case.e(r), v0), "[l_-1, V_0] != 0")

    # [x, v0] stays on the v0 line for the whole parabolic
    for vec in p_expected.basis_vectors():
        _check(set(s.bracket(vec, v0)) <= {case.v0_index},
               "the parabolic moves the v0 line")


def _l_basis_vectors(case: SubadjointCase) -> list[Vec]:
    """Deterministic basis of l inside s: coroots of Delta_l, then roots."""
    out = [case.coroot_vec(b) for b in case.l_simple_roots]
    out += [case.e(r) for r in case.l_roots]
    return out


def _restricted_table(case: SubadjointCase) -> LieAlgebraTable:
    """l as an abstract table over the l basis (stabilizers, and g's [l, l])."""
    s = case.s_table
    l_basis = _l_basis_vectors(case)
    n = len(l_basis)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            b = s.bracket(l_basis[i], l_basis[j])
            if b:
                brackets[(i, j)] = case.l_coords(b)
    labels = tuple(
        [f"H{i}" for i in range(len(case.l_simple_roots))]
        + [f"X{i}" for i in range(len(case.l_roots))]
    )
    return LieAlgebraTable(dim=n, labels=labels, brackets=brackets)


# --------------------------------------------------------------------------
# Symplectic form and fundamental forms
# --------------------------------------------------------------------------

def symplectic_form(case: SubadjointCase) -> list[list[int]]:
    """Matrix of sigma on the V basis, valued in the line s_2."""
    rs, s = case.rs, case.s_table
    theta_idx = case.root_index(rs.highest_root)
    n = case.dim_V
    idx = [case.root_index(v) for v in case.V_roots]
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            br = s.bracket_basis(idx[i], idx[j])
            _check(set(br) <= {theta_idx}, "degree-2 bracket escaped s_2")
            mat[i][j] = br.get(theta_idx, 0)
    return mat


@dataclass
class FundamentalForms:
    """II, III and the pairing beta at the point [v0], in the l_1 basis.

    II[a][b] is a vector in V_2 coordinates, III[a][b][c] a scalar (V_3 is a
    line), beta[w][a] the V_3 coefficient of [a, w] for w in V_2.
    """

    l1_roots: tuple
    V2_roots: tuple
    II: list
    III: list
    beta: list

    @property
    def dim(self) -> int:
        return len(self.l1_roots)


def fundamental_forms(case: SubadjointCase) -> FundamentalForms:
    s = case.s_table
    l1 = case.l1_roots()
    V2 = [v for v in case.V_roots if case.V_root_level[v] == 2]
    V3 = [v for v in case.V_roots if case.V_root_level[v] == 3]
    _check(len(V3) == 1, f"V_3 has {len(V3)} roots, not one")
    v3_idx = case.root_index(V3[0])
    v2_pos = {case.root_index(v): k for k, v in enumerate(V2)}
    d = len(l1)
    v0 = case.e(case.v0_root)

    def to_v2(vec: Vec) -> list[int]:
        out = [0] * len(V2)
        for k, c in vec.items():
            out[v2_pos[k]] = c
        return out

    first = [s.bracket(case.e(a), v0) for a in l1]
    II = [[to_v2(s.bracket(case.e(a), first[bi])) for bi in range(d)]
          for a in l1]
    III = [[[s.bracket(case.e(a), s.bracket(case.e(b), first[ci])).get(
        v3_idx, 0) for ci in range(d)] for b in l1] for a in l1]
    beta = [[s.bracket(case.e(a), case.e(w)).get(v3_idx, 0)
             for a in l1] for w in V2]
    return FundamentalForms(
        l1_roots=tuple(l1), V2_roots=tuple(V2), II=II, III=III, beta=beta
    )


def ii_value(case: SubadjointCase, forms: FundamentalForms, b: Vec) -> list:
    """II(b, b) for an arbitrary vector b in l_1 (V_2 coordinates)."""
    l1_idx = [case.root_index(r) for r in forms.l1_roots]
    coeffs = [b.get(i, 0) for i in l1_idx]
    d = forms.dim
    out = [0] * len(forms.V2_roots)
    for i in range(d):
        if not coeffs[i]:
            continue
        for j in range(d):
            if not coeffs[j]:
                continue
            c = coeffs[i] * coeffs[j]
            row = forms.II[i][j]
            for k, v in enumerate(row):
                if v:
                    out[k] += c * v
    return out


def iii_value(case: SubadjointCase, forms: FundamentalForms, b: Vec):
    """III(b, b, b) for an arbitrary vector b in l_1."""
    l1_idx = [case.root_index(r) for r in forms.l1_roots]
    coeffs = [b.get(i, 0) for i in l1_idx]
    d = forms.dim
    total = 0
    for i in range(d):
        if not coeffs[i]:
            continue
        for j in range(d):
            if not coeffs[j]:
                continue
            cij = coeffs[i] * coeffs[j]
            row = forms.III[i][j]
            for k in range(d):
                if coeffs[k] and row[k]:
                    total += cij * coeffs[k] * row[k]
    return total


# --------------------------------------------------------------------------
# Closed-orbit sampling and the bracket kernel certificate
# --------------------------------------------------------------------------

def highest_weight_roots_of_l1(case: SubadjointCase) -> list[tuple]:
    """The highest weight root of l_1 in each simple ideal of l."""
    rs = case.rs
    out = []
    for ci in range(len(case.l_components)):
        cands = [
            r for r in case.l1_roots()
            if case.ideal_of_root(r) == ci and all(
                not rs.is_root(tuple(x + y for x, y in zip(r, b)))
                for b in case.l_simple_roots
            )
        ]
        _check(len(cands) == 1,
               f"ideal {ci} has {len(cands)} highest weight roots in l_1")
        out.append(cands[0])
    return out


def sample_closed_orbit(case: SubadjointCase, count: int, seed: int) -> list[Vec]:
    """Points on the affine cone of closed L_0-orbits in l_1.

    Per simple ideal: the highest weight vector, then images of it under
    products of exp(ad f) for lowering elements f of l_0 with small random
    rational parameters.  exp is exact because ad f is nilpotent on l.
    Returns count vectors per ideal; the first one (parameters zero) is the
    highest weight vector itself.
    """
    if count < 1:
        return []
    rs, s = case.rs, case.s_table
    rng = random.Random(f"orbit-{case.s_label}-{seed}")
    lowering = [case.e(tuple(-x for x in r)) for r in case.l0_roots()
                if root_height(r) > 0]
    out = []
    for hw in highest_weight_roots_of_l1(case):
        start = case.e(hw)
        out.append(start)
        for _ in range(count - 1):
            vec = dict(start)
            for f in lowering:
                t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if not t:
                    continue
                vec = _exp_ad(s, vec_scale(f, t), vec)
            out.append(vec)
    return out


def _exp_ad(s: LieAlgebraTable, f: Vec, v: Vec) -> Vec:
    out = dict(v)
    term = dict(v)
    k = 1
    while term:
        term = s.bracket(f, term)
        if not term:
            break
        term = vec_scale(term, Fraction(1, k))
        vec_add_scaled(out, term, 1)
        k += 1
        _check(k < 64, "ad f is not nilpotent on the sampled vector")
    return out


@dataclass
class XvvCertificate:
    status: str          # "PASS" | "INCONCLUSIVE"
    samples_used: int
    kernel_dim: int


def check_xvv(case: SubadjointCase, samples: list[Vec]) -> XvvCertificate:
    """Certify {a in l_{-1} : [[a,b],b] = 0 for all sampled b} = 0.

    A zero kernel on finitely many orbit points certifies the full claim
    (the kernel over the whole orbit cone is contained in this one); a
    nonzero kernel is INCONCLUSIVE, never a refutation.
    """
    s = case.s_table
    lm1 = [case.e(r) for r in case.lminus1_roots()]
    ncols = len(lm1)
    acc = RrefBasis(ncols)
    for b in samples:
        images = [s.bracket(s.bracket(a, b), b) for a in lm1]
        coords = set()
        for im in images:
            coords |= set(im)
        for m in sorted(coords):
            row = {i: im[m] for i, im in enumerate(images) if m in im}
            if row:
                acc.add(row)
    kdim = acc.kernel_dim()
    status = "PASS" if kdim == 0 else "INCONCLUSIVE"
    return XvvCertificate(status=status, samples_used=len(samples),
                          kernel_dim=kdim)
