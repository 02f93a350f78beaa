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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .liecore import (
    ConsistencyError,
    Grading,
    LieAlgebraTable,
    _check,
    contact_grading,
    line_stabilizer,
)
from .linalg import (
    Vec,
    integer_inverse,
    kernel_combinations,
    span,
    vec_add_scaled,
    vec_scale,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    chevalley_table,
    classify_dynkin,
    node_orbit,
    root_height,
)


class CaseExcludedError(ValueError):
    """Raised for a case that is not verified: `build_case` raises it for
    types A and C, which carry no subadjoint case, and `verify.active_entry`
    for an excluded registry row (G2, the twisted cubic)."""


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
    if series == "G":
        return [("A1", 1)]
    return {6: [("A5", 3)], 7: [("D6", 6)], 8: [("E7", 7)]}[rank]


@dataclass
class SubadjointCase:
    """One subadjoint case with its graded data inside the ambient s.

    l has no table of its own: its basis is `_l_basis_vectors` (the simple
    coroots of l, then its root vectors) as vectors of s, every bracket of
    l is read from s_table, and `l_coords` maps a vector of l to that
    basis (for g's [l, l] block).
    """

    s_label: str
    rs: RootSystem
    s_table: LieAlgebraTable
    contact: Grading
    V_roots: tuple           # degree-1 roots, table order
    v0_root: tuple
    vhi_root: tuple
    l_simple_roots: tuple    # roots of s spanning the simple system of l
    l_components: tuple      # DynkinComponent per simple ideal
    marked: tuple            # indices into l_simple_roots (the set I)
    embedding_weight: tuple          # omega_* in l fundamental coords
    embedding_weight_simple: tuple   # same in l simple-root coords
    z: Vec                   # grading element of l, s coordinates
    l_roots: tuple           # all roots of l
    l_degree: dict           # root -> degree in {-1, 0, 1}
    V_root_level: dict       # root -> j in 0..3

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
        part h gets t = C_l^{-T} (<beta_j, h>)_j, in integers over the one
        denominator of C_l^{-1}.  Raises ConsistencyError if v has a root
        component outside l or h is not sum_i t_i beta_i^vee: l is closed
        under the bracket, so only a corrupted table gets there.
        """
        rank, nh = self.rs.rank, len(self.l_simple_roots)
        h = {k: c for k, c in v.items() if k < rank}
        out: Vec = {}
        if h:
            pair = [sum(c * row[k] for k, c in h.items())
                    for row in self._l_pairings]
            inv, den = self._l_inv, self._l_den
            back: Vec = {}
            for i, cor in enumerate(self._l_coroots):
                t = sum(inv[j][i] * p for j, p in enumerate(pair) if p)
                if t:
                    out[i] = Fraction(t, den)
                    vec_add_scaled(back, cor, t)
            _check(back == {k: den * c for k, c in h.items()},
                   "Cartan part outside the coroot span of l")
        for k, c in v.items():
            if k >= rank:
                pos = self._l_root_pos.get(k)
                if pos is None:
                    raise ConsistencyError(
                        f"root {self.root_of_index(k)} is not a root of l")
                out[nh + pos] = c
        return out

    def cI(self, root) -> Fraction:
        """c^I of the s-weight root: <root, z>, the sum of its marked l
        simple-root coordinates, the pairing that gives `l_degree` and
        `V_root_level`."""
        return Fraction(_dot(self._z_row, root), self._l_den)

    def ideal_of_root(self, r: tuple) -> int:
        """Index of the simple ideal containing the root r of l."""
        return self._ideal_of_root[r]


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y) if b)


def _degree_zero_simple_system(rs: RootSystem, degree: dict) -> list[tuple]:
    """The positive degree-zero roots that are not a sum of two of them."""
    zero = {rs.root_code(r): r for r in rs.positive_roots if degree[r] == 0}
    simple = [g for cg, g in zero.items()
              if not any(cg - ca in zero for ca in zero)]
    return sorted(simple, key=lambda r: (root_height(r), r))


def build_case(label: str) -> SubadjointCase:
    """Construct the case for s of the given type; raises CaseExcludedError
    for types A and C."""
    series = label[:1].upper()
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
    simple = [tuple(int(i == j) for j in range(rs.rank))
              for i in range(rs.rank)]

    # the contact degree <r, theta^vee> is linear in r, so its values on the
    # simple roots fix it; there the coroot-coefficient route must agree
    # with the symmetric-form route
    theta = rs.highest_root
    theta_cor = rs.coroot_coords(theta)
    deg = [_cartan_entry(rs, theta, a) for a in simple]
    _check(deg == [sum(theta_cor[j] * rs.pairing(a, j) for j in range(rs.rank))
                   for a in simple],
           "contact degree routes disagree")
    degree = {r: _dot(deg, r) for r in s_roots}

    V_roots = tuple(r for r in s_roots if degree[r] == 1)

    # the semisimple part l of s_0: degree-zero root subsystem
    l_simple = _degree_zero_simple_system(rs, degree)
    l_roots = tuple(r for r in s_roots if degree[r] == 0)
    l_cartan = [[_cartan_entry(rs, a, b) for b in l_simple] for a in l_simple]
    comps = classify_dynkin(l_cartan)

    # lowest/highest weight vectors of V under l: killed by all lowering
    # (resp. raising) simple root vectors of l
    codes = rs._code_index
    l_codes = [rs.root_code(b) for b in l_simple]
    lows, his = [], []
    for v in V_roots:
        cv = rs.root_code(v)
        if all(cv - cb not in codes for cb in l_codes):
            lows.append(v)
        if all(cv + cb not in codes for cb in l_codes):
            his.append(v)
    _check(len(lows) == 1, f"lowest weight vector not unique: {lows}")
    _check(len(his) == 1, f"highest weight vector not unique: {his}")
    v0_root, vhi_root = lows[0], his[0]

    # <x, b^vee> for the simple roots b of l is linear in x: K[i] holds its
    # values on the simple roots of s, and C_l^{-1} K over the one
    # denominator of C_l^{-1} maps a weight to its l simple-root coordinates
    l_inv, l_den = integer_inverse(l_cartan)
    K = [[_cartan_entry(rs, b, a) for a in simple] for b in l_simple]
    weight_map = [[sum(row[j] * K[j][k] for j in range(len(l_simple)))
                   for k in range(rs.rank)] for row in l_inv]

    # embedding weight omega_*: v0 is a lowest weight vector, so the
    # restriction of its weight to the Cartan of l is -omega_*
    fund = [-_dot(row, v0_root) for row in K]
    _check(all(x >= 0 for x in fund),
           f"v0 is not a lowest weight vector: {fund}")
    marked = tuple(i for i, x in enumerate(fund) if x > 0)
    embedding_weight = tuple(fund)
    embedding_weight_simple = tuple(Fraction(_dot(row, fund), l_den)
                                    for row in l_inv)

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
        t = Fraction(sum(l_inv[j][i] for j in marked), l_den)
        cor = rs.coroot_coords(b)
        vec_add_scaled(z, {k: c for k, c in enumerate(cor) if c}, t)

    # l-grading by z eigenvalues: <r, z> is the sum of the marked
    # l simple-root coordinates of r
    z_row = [sum(weight_map[i][k] for i in marked) for k in range(rs.rank)]
    l_degree = {}
    for r in l_roots:
        num = _dot(z_row, r)
        ev, rem = divmod(num, l_den)
        _check(not rem and abs(ev) <= 1,
               f"z eigenvalue {Fraction(num, l_den)} on the l root {r}")
        l_degree[r] = ev
    # osculating levels of V: <v, z> - <v0, z>
    base = _dot(z_row, v0_root)
    V_root_level = {}
    for v in V_roots:
        num = _dot(z_row, v) - base
        j, rem = divmod(num, l_den)
        _check(not rem and 0 <= j <= 3,
               f"osculating level {Fraction(num, l_den)} of the V root {v}")
        V_root_level[v] = j

    case = SubadjointCase(
        s_label=f"{rs.series}{rs.rank}",
        rs=rs,
        s_table=s_table,
        contact=contact,
        V_roots=V_roots,
        v0_root=v0_root,
        vhi_root=vhi_root,
        l_simple_roots=tuple(l_simple),
        l_components=tuple(comps),
        marked=marked,
        embedding_weight=embedding_weight,
        embedding_weight_simple=embedding_weight_simple,
        z=z,
        l_roots=l_roots,
        l_degree=l_degree,
        V_root_level=V_root_level,
    )
    case._root_index = root_index
    case._s_roots = s_roots
    case._l_root_pos = {root_index[r]: i for i, r in enumerate(l_roots)}
    case._l_inv, case._l_den = l_inv, l_den
    case._z_row = z_row
    case._l_coroots = [case.coroot_vec(b) for b in l_simple]
    case._l_pairings = [[rs.pairing(b, k) for k in range(rs.rank)]
                        for b in l_simple]
    ideal_of = {}
    for r in l_roots:
        # the nonzero l simple-root coordinates of r, read on their numerators
        cis = {node_comp[i] for i, row in enumerate(weight_map) if _dot(row, r)}
        _check(len(cis) == 1, f"l root {r} meets {len(cis)} simple ideals")
        ideal_of[r] = cis.pop()
    case._ideal_of_root = ideal_of
    case._node_comp = node_comp

    _validate_case(case)
    return case


def _cartan_entry(rs: RootSystem, a: tuple, b: tuple) -> int:
    """<b, a^vee> = 2 (a, b) / (a, a) for roots a, b: an integer, so the
    division of the integer forms 6(., .) is exact or raises."""
    q, rem = divmod(2 * rs.form6(a, b), rs.form6(a, a))
    _check(not rem, f"non-integral Cartan entry <{b}, {a}^vee>")
    return q


def _validate_case(case: SubadjointCase) -> None:
    rs, s = case.rs, case.s_table
    dim = s.dim
    d1 = case.dim_l1
    # the graded pieces of l and the osculating levels of V, each spanned by
    # the basis vectors of s that the degree maps put there
    l_pieces: dict[int, list] = {}
    for r in case.l_roots:
        l_pieces.setdefault(case.l_degree[r], []).append(case.e(r))
    l_pieces.setdefault(0, []).extend(
        case.coroot_vec(b) for b in case.l_simple_roots)
    V_levels: dict[int, list] = {}
    for v in case.V_roots:
        V_levels.setdefault(case.V_root_level[v], []).append(case.e(v))
    dims_V = {j: len(vs) for j, vs in V_levels.items()}
    _check(dims_V == {0: 1, 1: d1, 2: d1, 3: 1}, f"V level dims {dims_V}")
    _check(set(l_pieces) == {-1, 0, 1}, "l is not 3-graded")
    _check(len(l_pieces[1]) == len(l_pieces[-1]) == d1,
           "dim l_1 != dim l_-1")

    # marked-node oracle (Prop-2.4-style table, up to diagram automorphisms)
    expected = _expected_factors(rs.series, rs.rank)
    got = []
    for ci, comp in enumerate(case.l_components):
        # build_case has checked one marked node per simple ideal
        mk = next(m for m in case.marked if case._node_comp[m] == ci)
        pos = comp.nodes.index(mk)
        got.append((comp.type_label, pos))
    def orbit_key(item):
        t, pos = item
        series, rank = t[0], int(t[1:])
        return (t, tuple(sorted(node_orbit(series, rank, pos))))
    want = sorted(orbit_key((t, p - 1)) for t, p in expected)
    have = sorted(orbit_key(g) for g in got)
    _check(have == want, f"marked nodes {have}, table says {want}")

    # stabilizer cross-checks inside s: p = l_{-1} + l_0 is the stabilizer
    # in l of the line through v0 (so [x, v0] lies on that line for every x
    # in p), and the opposite parabolic that of the highest weight line
    l_basis = _l_basis_vectors(case)
    v0 = case.e(case.v0_root)
    _check(line_stabilizer(s, l_basis, v0)
           == span(dim, l_pieces[-1] + l_pieces[0]),
           "line stabilizer disagrees with l_{-1}+l_0")
    _check(line_stabilizer(s, l_basis, case.e(case.vhi_root))
           == span(dim, l_pieces[0] + l_pieces[1]),
           "opposite stabilizer disagrees")

    # z centralizes l_0 and has spectrum {-1,0,1} on l (by construction of
    # l_degree; here we check the bracket action agrees), read on d z for
    # the denominator d of C_l^{-1}, whose entries are integers
    den = case._l_den
    zd = {k: int(c) if c.denominator == 1 else c
          for k, c in ((k, c * den) for k, c in case.z.items())}
    for j in (-1, 0, 1):
        for vec in l_pieces[j]:
            _check(s.bracket(zd, vec) == vec_scale(vec, j * den),
                   f"z does not act by {j} on l_{j}")

    # osculating route: V_{j+1} = [l_1, V_j] starting from V_0 = <v0>
    cur = span(dim, V_levels[0])
    l1_vecs = [case.e(r) for r in case.l1_roots()]
    for j in range(3):
        cur = span(dim, (s.bracket(a, w) for a in l1_vecs
                         for w in cur.rows.values()))
        _check(cur == span(dim, V_levels[j + 1]),
               f"bracket route disagrees with z-eigenspace route at level "
               f"{j + 1}")

    # degree clipping: [l_1, V_3] = 0 and [l_{-1}, V_0] = 0
    for a in l1_vecs:
        for w in V_levels[3]:
            _check(not s.bracket(a, w), "[l_1, V_3] != 0")
    for r in case.lminus1_roots():
        _check(not s.bracket(case.e(r), v0), "[l_-1, V_0] != 0")


def _l_basis_vectors(case: SubadjointCase) -> list[Vec]:
    """Deterministic basis of l inside s: coroots of Delta_l, then roots."""
    out = [case.coroot_vec(b) for b in case.l_simple_roots]
    out += [case.e(r) for r in case.l_roots]
    return out


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
        l1_roots=tuple(l1), II=II, III=III, beta=beta
    )


# --------------------------------------------------------------------------
# The closed orbits in l_1: highest weight vectors, the l_0-stable core of
# the bracket kernel, and orbit sampling for its cross-check
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


def _l0_basis(case: SubadjointCase) -> list[Vec]:
    """Basis of l_0 inside s: the coroots of l, then its degree-0 roots."""
    return ([case.coroot_vec(b) for b in case.l_simple_roots]
            + [case.e(r) for r in case.l0_roots()])


def bracket_kernel(case: SubadjointCase, points: list[Vec]) -> list[Vec]:
    """Basis of {a in l_{-1} : [[a, b], b] = 0 for every b in points}."""
    s = case.s_table

    def image(a: Vec) -> dict:
        return {(bi, m): c for bi, b in enumerate(points)
                for m, c in s.bracket(s.bracket(a, b), b).items()}

    return kernel_combinations([case.e(r) for r in case.lminus1_roots()], image)


@dataclass
class XvvCore:
    dim_K_hw: int   # dim K(hw)
    rounds: int     # refinements K_j -> K_{j+1} computed
    dim: int        # dim of the l_0-stable core


def xvv_core(case: SubadjointCase) -> XvvCore:
    """The largest l_0-submodule of K(hw) = {a in l_{-1} : [[a, hw_i], hw_i]
    = 0 for the highest weight vector hw_i of each simple ideal of l_1}.

    Lemma.  Let C be the cone over the closed L_0-orbits in l_1, and
    K(C) = {a in l_{-1} : [[a, b], b] = 0 for all b in C}.  Then K(C) = 0
    exactly when this core is 0.
    - L_0 acts on s by automorphisms (Jacobi on s, `jacobi-ambient`) and
      keeps C, so K(C) is L_0-stable, hence an l_0-submodule.  It lies in
      K(hw), as each hw_i is in C, so it lies in the core.
    - Conversely, the core is L_0-stable, since L_0 is generated by the
      exp(ad x), x in l_0.  For a in it and g in L_0, g a is in K(hw), so
      [[a, g^-1 hw_i], g^-1 hw_i] = g^-1 [[g a, hw_i], hw_i] = 0.  The
      closed orbit of an irreducible module is the orbit of its highest
      weight line (Borel-Weil), so these points and their multiples fill
      C, and the core lies in K(C).
    So a zero core certifies the claim and a nonzero core refutes it.

    The core is the limit of K_0 = K(hw), K_{j+1} = {a in K_j : [x, a] in
    K_j for every basis vector x of l_0}: every l_0-submodule of K_0 lies
    in each K_j, and a K_j with K_{j+1} = K_j is an l_0-submodule.
    """
    s, l0 = case.s_table, _l0_basis(case)
    core = bracket_kernel(case, [case.e(r) for r in highest_weight_roots_of_l1(case)])
    dim_hw, rounds = len(core), 0
    while core:
        rounds += 1
        inside = span(s.dim, core)

        def outside(a: Vec) -> dict:
            # [x, a] modulo K_j, for each x
            return {(xi, m): c for xi, x in enumerate(l0)
                    for m, c in inside.reduce(s.bracket(x, a)).items()}

        smaller = kernel_combinations(core, outside)
        if len(smaller) == len(core):
            break
        core = smaller
    return XvvCore(dim_K_hw=dim_hw, rounds=rounds, dim=len(core))


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


def check_xvv(case: SubadjointCase, samples: list[Vec]) -> int:
    """dim {a in l_{-1} : [[a,b],b] = 0 for all sampled b}.

    A zero kernel on finitely many orbit points certifies the full claim
    (the kernel over the whole orbit cone is contained in this one); a
    nonzero kernel is never a refutation.  Each point is scaled by the lcm
    m of its denominators first: [[a, m b], m b] = m^2 [[a, b], b], so the
    kernel is the same and is found in integers.
    """
    points = []
    for b in samples:
        m = lcm(*(c.denominator for c in b.values()))
        points.append({k: int(c * m) for k, c in b.items()})
    return len(bracket_kernel(case, points))
