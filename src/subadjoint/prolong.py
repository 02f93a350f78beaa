"""Tanaka prolongation solver for graded nilpotent algebras.

Level k unknowns are full graded maps phi from n_+ into the accumulated
tower (degree-(d-k) values: n_+ components for positive target degree, the
derivation space n_0 at degree zero, previously computed prolongation
spaces below).  The compatibility equation

    phi([x, y]) = [phi(x), y] + [x, phi(y)]

is imposed on every basis pair; the bracket of an n_0-value with n_+ is the
derivation action, the bracket of a negative-level value with y is
evaluation of the stored map.  The kernel is computed by exact sparse
elimination.

Exact witness maps (for the main cases, the ad action of g_{-1}) lie in the
prolongation once they pass substitution, so their rank is a floor: no row
can push the kernel below their span.  `forced_rank` feeds pair rows,
highest degree sum first, into one accumulator and stops once the rank
reaches dim minus that floor.  `prolongation` then substitutes every
kernel basis map into the equation on all pairs.  A failed substitution
raises ProlongConsistencyError, not an assert, so `python -O` keeps the
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .liecore import LieAlgebraTable, check_jacobi
from .linalg import RrefBasis, Vec, vec_add_scaled


class ProlongDepthError(RuntimeError):
    """k_max beyond the safety bound: the prolongation may be infinite."""


class ProlongConsistencyError(RuntimeError):
    """The input is not a graded nilpotent algebra with degree-0 derivations
    (n_+ violates Jacobi, say), a witness or kernel map fails the
    compatibility equation, or the computed dimensions vanish
    non-monotonically.

    `witness` is True when a supplied witness map failed.
    """

    def __init__(self, message: str, witness: bool = False):
        super().__init__(message)
        self.witness = witness


DEPTH_LIMIT = 6  # deeper levels need allow_deep


@dataclass
class ProlongInput:
    """Graded nilpotent n_+ (generated in degree 1) plus degree-0 derivations.

    n0_mats holds one column-sparse matrix per n_0 basis element:
    mats[a][j] is the image of basis vector j, a sparse Vec.
    """

    nplus: LieAlgebraTable
    degrees: tuple
    n0_mats: tuple

    @property
    def dim(self) -> int:
        return self.nplus.dim

    @property
    def n0_dim(self) -> int:
        return len(self.n0_mats)

    def components(self) -> dict:
        out: dict[int, list] = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
        return out

    def validate(self) -> None:
        """Raise ProlongConsistencyError unless n_+ is a graded Lie algebra
        generated in degree 1 and n_0 a commutator-closed family of
        independent degree-preserving derivations."""
        n = self.dim
        _require(len(self.degrees) == n and all(d >= 1 for d in self.degrees),
                 "degrees must be >= 1, one per basis vector")
        if check_jacobi(self.nplus):
            raise ProlongConsistencyError("n_+ violates Jacobi")
        for (i, j), vec in self.nplus.brackets.items():
            dd = self.degrees[i] + self.degrees[j]
            _require(all(self.degrees[k] == dd for k in vec),
                     f"bracket ({i}, {j}) is not additive in degree")
        comp = self.components()
        span = RrefBasis(n)
        for i in comp.get(1, []):
            span.add({i: 1})
        frontier = [{i: 1} for i in comp.get(1, [])]
        while frontier:
            new = []
            for x in frontier:
                for i in comp.get(1, []):
                    b = self.nplus.bracket({i: 1}, x)
                    if b and span.add(b):
                        new.append(b)
            frontier = new
        _require(span.rank == n, "degree-1 component does not generate")
        # a degree-preserving derivation is a level-0 solution of the
        # compatibility equation
        tower = _Tower(self)
        flat = RrefBasis(n * n)
        for a, mat in enumerate(self.n0_mats):
            _require(all(self.degrees[k] == self.degrees[j]
                         for j, col in enumerate(mat) for k in col),
                     f"n0 element {a} is not degree-preserving")
            phi = [tower._to_coords(self.degrees[j], col)
                   for j, col in enumerate(mat)]
            _require(residual_is_zero(self, tower, 0, phi),
                     f"n0 element {a} is not a derivation")
            _require(flat.add(_flatten(mat, n)),
                     "n0 matrices are linearly dependent")
        for a in range(self.n0_dim):
            for b in range(a + 1, self.n0_dim):
                comm = _commutator(self.n0_mats[a], self.n0_mats[b], self.nplus.dim)
                _require(flat.contains(_flatten(comm, n)),
                         "n0 not closed under commutator")


def _require(ok: bool, message: str) -> None:
    """Raise ProlongConsistencyError unless ok (an assert would vanish under -O)."""
    if not ok:
        raise ProlongConsistencyError(message)


def _flatten(mat, n) -> Vec:
    out: Vec = {}
    for j, col in enumerate(mat):
        for i, v in col.items():
            out[i * n + j] = v
    return out


def _commutator(A, B, n):
    def apply(mat, vec: Vec) -> Vec:
        out: Vec = {}
        for j, c in vec.items():
            vec_add_scaled(out, mat[j], c)
        return out

    return [_vec_sub(apply(A, B[j]), apply(B, A[j])) for j in range(n)]


def _vec_sub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    vec_add_scaled(out, b, -1)
    return out


# --------------------------------------------------------------------------
# The solver
# --------------------------------------------------------------------------

TaggedMap = list  # per n_+ basis index: sparse dict over target coordinates


@dataclass
class ProlongResult:
    dims: dict
    bases: dict                  # k -> list[TaggedMap]
    stopped_early: dict = field(default_factory=dict)

    def monotone_vanishing_ok(self) -> bool:
        ks = sorted(self.dims)
        hit_zero = False
        for k in ks:
            if hit_zero and self.dims[k] != 0:
                return False
            if self.dims[k] == 0:
                hit_zero = True
        return True


class _Tower:
    """Target-space bookkeeping for one prolongation run."""

    def __init__(self, inp: ProlongInput):
        self.inp = inp
        comp = inp.components()
        self.comp_list = {d: tuple(ix) for d, ix in comp.items()}
        self.pos_in_comp = {
            d: {g: i for i, g in enumerate(ix)} for d, ix in self.comp_list.items()
        }
        self.bases: dict[int, list[TaggedMap]] = {}  # level j -> maps

    def space_dim(self, j: int) -> int:
        if j >= 1:
            return len(self.comp_list.get(j, ()))
        if j == 0:
            return self.inp.n0_dim
        return len(self.bases.get(-j, ()))

    def bracket_with_nplus(self, j: int, s: int, v: int) -> tuple[int, Vec]:
        """[basis_s of T_j, e_v] as (target degree, coords in that space).

        For j >= 1 this is the n_+ bracket, for j = 0 the derivation action,
        for j < 0 evaluation of the stored map.
        """
        dv = self.inp.degrees[v]
        target = j + dv
        if j >= 1:
            w = self.comp_list[j][s]
            raw = self.inp.nplus.bracket_basis(w, v)
            return target, self._to_coords(target, raw)
        if j == 0:
            raw = self.inp.n0_mats[s][v]
            return target, self._to_coords(target, raw)
        psi = self.bases[-j][s]
        return target, dict(psi[v])

    def _to_coords(self, target: int, raw: Vec) -> Vec:
        if not raw:
            return {}
        pos = self.pos_in_comp[target]
        return {pos[w]: c for w, c in raw.items()}


def unknown_layout(inp: ProlongInput, tower: _Tower, k: int):
    offsets = []
    sizes = []
    total = 0
    for u in range(inp.dim):
        m = tower.space_dim(inp.degrees[u] - k)
        offsets.append(total)
        sizes.append(m)
        total += m
    return offsets, sizes, total


def pair_rows(inp: ProlongInput, tower: _Tower, k: int, offsets, u: int, v: int,
              only: dict | None = None):
    """Constraint rows of phi([u,v]) - [phi(u),v] - [u,phi(v)] = 0.

    One row per nonzero target coordinate in T_{deg u + deg v - k}, in
    coordinate order.  This is the only place the compatibility equation is
    written as rows; on `g_tower(g)` they are the rows of the Spencer
    differential on C^{-k,1}, negated.  `only`, when given, maps a source
    index to the slots s of phi(source) to keep (none for a missing
    source): the rows are then those of that column block, with the same
    column numbers and zero rows dropped.
    """
    du, dv = inp.degrees[u], inp.degrees[v]
    S = du + dv - k
    mS = tower.space_dim(S)
    if mS == 0:
        return []
    bycoord: dict[int, Vec] = {}

    def slots(x: int):
        if only is None:
            return range(tower.space_dim(inp.degrees[x] - k))
        return only.get(x, ())

    def stamp(col: int, coords: Vec, sign: int):
        for m, c in coords.items():
            row = bycoord.setdefault(m, {})
            val = row.get(col, 0) + sign * c
            if val:
                row[col] = val
            else:
                row.pop(col, None)

    # phi([u, v]): unknowns of the source elements w
    for w, cw in inp.nplus.bracket_basis(u, v).items():
        for s in slots(w):
            stamp(offsets[w] + s, {s: cw}, +1)
    # -[phi(u), v]
    ju = du - k
    for s in slots(u):
        _, coords = tower.bracket_with_nplus(ju, s, v)
        stamp(offsets[u] + s, coords, -1)
    # -[u, phi(v)] = +[phi(v), u]
    jv = dv - k
    for s in slots(v):
        _, coords = tower.bracket_with_nplus(jv, s, u)
        stamp(offsets[v] + s, coords, +1)
    return [row for _, row in sorted(bycoord.items()) if row]


def forced_rank(inp: ProlongInput, tower: _Tower, k: int, offsets, ncols: int,
                floor: int) -> tuple[RrefBasis, bool]:
    """Eliminate the level-k pair rows until the rank reaches ncols - floor.

    `floor` is the rank of maps known to solve level k: no row can push the
    kernel below their span, so at that rank elimination is complete and
    the remaining rows are never built.  Pairs come highest degree sum
    first (index order within a sum), which reaches the rank after fewer
    rows than index order.  Returns the accumulator and whether rows were
    left when it stopped.
    """
    pairs = sorted(((u, v) for u in range(inp.dim) for v in range(u + 1, inp.dim)),
                   key=lambda p: -inp.degrees[p[0]] - inp.degrees[p[1]])
    acc = RrefBasis(ncols)
    for u, v in pairs:
        for row in pair_rows(inp, tower, k, offsets, u, v):
            if acc.rank >= ncols - floor:
                return acc, True
            acc.add(row)
    return acc, False


def _kernel_vec_to_map(inp, tower, k, offsets, sizes, vec: Vec) -> TaggedMap:
    phi: TaggedMap = [dict() for _ in range(inp.dim)]
    for u in range(inp.dim):
        base = offsets[u]
        block = {}
        for s in range(sizes[u]):
            c = vec.get(base + s)
            if c:
                block[s] = c
        phi[u] = block
    return phi


def _map_to_vec(offsets, phi: TaggedMap) -> Vec:
    out: Vec = {}
    for u, block in enumerate(phi):
        for s, c in block.items():
            out[offsets[u] + s] = c
    return out


def residual_is_zero(inp: ProlongInput, tower: _Tower, k: int, phi: TaggedMap) -> bool:
    """Substitute phi back into the compatibility equation on all pairs."""
    for u in range(inp.dim):
        for v in range(u + 1, inp.dim):
            du, dv = inp.degrees[u], inp.degrees[v]
            if tower.space_dim(du + dv - k) == 0:
                continue
            total: Vec = {}
            for w, cw in inp.nplus.bracket_basis(u, v).items():
                vec_add_scaled(total, phi[w], cw)
            for s, c in phi[u].items():
                _, coords = tower.bracket_with_nplus(du - k, s, v)
                vec_add_scaled(total, coords, -c)
            for s, c in phi[v].items():
                _, coords = tower.bracket_with_nplus(dv - k, s, u)
                vec_add_scaled(total, coords, c)
            if total:
                return False
    return True


def prolongation(inp: ProlongInput, k_max: int, witnesses: dict | None = None,
                 allow_deep: bool = False) -> ProlongResult:
    """Compute prolongation dimensions and bases up to k_max.

    witnesses maps a level k to exact maps known to lie in the k-th
    prolongation; they are verified by substitution and their rank is the
    floor at which `forced_rank` stops.  `stopped_early[k]` says whether it
    stopped with rows left.  Raises ProlongDepthError for k_max beyond
    DEPTH_LIMIT unless allow_deep, and ProlongConsistencyError if the input
    fails `ProlongInput.validate` or a witness or kernel map fails
    substitution.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > DEPTH_LIMIT and not allow_deep:
        raise ProlongDepthError(
            f"k_max={k_max} exceeds the safety bound {DEPTH_LIMIT}; pass "
            f"allow_deep=True for inputs with known infinite prolongations"
        )
    inp.validate()
    witnesses = witnesses or {}
    tower = _Tower(inp)
    dims: dict[int, int] = {}
    stopped: dict[int, bool] = {}

    for k in range(1, k_max + 1):
        offsets, sizes, ncols = unknown_layout(inp, tower, k)
        wits = witnesses.get(k, [])
        if not all(residual_is_zero(inp, tower, k, phi) for phi in wits):
            raise ProlongConsistencyError(
                f"witness map fails the compatibility equation at level {k}",
                witness=True)
        acc, stopped[k] = forced_rank(inp, tower, k, offsets, ncols,
                                      witness_rank(wits))
        dims[k] = acc.kernel_dim()
        basis = [
            _kernel_vec_to_map(inp, tower, k, offsets, sizes, vec)
            for vec in acc.kernel_basis()
        ]
        for phi in basis:
            if not residual_is_zero(inp, tower, k, phi):
                raise ProlongConsistencyError(
                    f"solver kernel fails substitution at level {k}")
        tower.bases[k] = basis

    res = ProlongResult(
        dims=dims,
        bases={k: tower.bases.get(k, []) for k in dims},
        stopped_early=stopped,
    )
    if not res.monotone_vanishing_ok():
        raise ProlongConsistencyError("vanishing is not monotone")
    return res


# --------------------------------------------------------------------------
# Inputs derived from a GAlgebra
# --------------------------------------------------------------------------

def input_from_g(g) -> tuple[ProlongInput, list, list]:
    """(n_+ = g_+ with ad(g_0), g_+ indices, g_0 indices) for the main solve."""
    t = g.table
    gplus = [i for i, d in enumerate(g.degree) if d >= 1]
    g0 = [i for i, d in enumerate(g.degree) if d == 0]
    pos = {gi: i for i, gi in enumerate(gplus)}
    brackets = {}
    for a in range(len(gplus)):
        for b in range(a + 1, len(gplus)):
            raw = t.bracket_basis(gplus[a], gplus[b])
            if raw:
                brackets[(a, b)] = {pos[w]: c for w, c in raw.items()}
    nplus = LieAlgebraTable(
        dim=len(gplus),
        labels=tuple(t.labels[i] for i in gplus),
        brackets=brackets,
    )
    degrees = tuple(g.degree[i] for i in gplus)
    mats = []
    for x in g0:
        cols = []
        for u in gplus:
            raw = t.bracket_basis(x, u)
            cols.append({pos[w]: c for w, c in raw.items()})
        mats.append(cols)
    return ProlongInput(nplus=nplus, degrees=degrees, n0_mats=tuple(mats)), gplus, g0


def ad_witnesses(g, inp: ProlongInput, gplus: list, g0: list) -> list[TaggedMap]:
    """phi_a = ad(a)|_{g_+} for a in g_{-1}, written in tower coordinates.

    Degree-1 sources land in g_0 (n_0 coordinates, valid because ad is
    faithful on g_0), higher sources land back in n_+.  Raises
    ProlongConsistencyError when [a, u] leaves g_{deg u - 1}.
    """
    t = g.table
    pos = {gi: i for i, gi in enumerate(gplus)}
    g0_pos = {x: i for i, x in enumerate(g0)}
    comp = {}
    for i, d in enumerate(inp.degrees):
        comp.setdefault(d, []).append(i)
    pos_in_comp = {d: {n: i for i, n in enumerate(ix)} for d, ix in comp.items()}
    out = []
    for a in [i for i, d in enumerate(g.degree) if d == -1]:
        phi: TaggedMap = [dict() for _ in range(inp.dim)]
        for u in gplus:
            raw = t.bracket_basis(a, u)
            du = g.degree[u]
            if any(g.degree[w] != du - 1 for w in raw):
                raise ProlongConsistencyError(
                    f"[{t.labels[a]}, {t.labels[u]}] is not in g_{du - 1}: "
                    f"the grading of g is not additive")
            if du == 1:
                phi[pos[u]] = {g0_pos[x]: c for x, c in raw.items()}
            else:
                phi[pos[u]] = {
                    pos_in_comp[du - 1][pos[w]]: c for w, c in raw.items()
                }
        out.append(phi)
    return out


def g_tower(g) -> tuple[ProlongInput, _Tower]:
    """The tower of g itself: n_+ = g_+, n_0 = ad g_0, level 1 = ad g_{-1}.

    Deeper levels are empty, so level k has the unknowns of
    C^{-k,1} = Hom(g_+, g)_{-k}: columns (u, w) for u in g_+ and w in
    g_{deg u - k}, both in g-index order.  The input is not validated, so a
    corrupted table still yields rows and the checks built on them FAIL
    instead of raising.
    """
    inp, gplus, g0 = input_from_g(g)
    tower = _Tower(inp)
    tower.bases[1] = ad_witnesses(g, inp, gplus, g0)
    return inp, tower


def witness_rank(maps: list[TaggedMap]) -> int:
    """Exact rank of a family of tagged maps (injectivity check)."""
    if not maps:
        return 0
    width = 1
    for phi in maps:
        for block in phi:
            if block:
                width = max(width, 1 + max(block))
    acc = RrefBasis(width * len(maps[0]))
    rank = 0
    for phi in maps:
        flat: Vec = {}
        for u, block in enumerate(phi):
            for s, c in block.items():
                flat[u * width + s] = c
        if acc.add(flat):
            rank += 1
    return rank


# --------------------------------------------------------------------------
# Oracles: formal vector fields in one variable, sl2, direct sums
# --------------------------------------------------------------------------

def formal_vector_field_oracle(k_max: int) -> tuple[LieAlgebraTable, tuple]:
    """Truncation of the vector fields t^a d/dt, a = 0..k_max+1.

    Basis index a holds t^a d/dt with degree 1 - a; brackets are
    [t^a d, t^b d] = (b - a) t^{a+b-1} d, truncated below degree -k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = k_max + 2
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            c = a + b - 1
            if 0 <= c < n and (b - a):
                brackets[(a, b)] = {c: Fraction(b - a)}
    labels = tuple(f"t^{a}d/dt" if a else "d/dt" for a in range(n))
    degrees = tuple(1 - a for a in range(n))
    return LieAlgebraTable(dim=n, labels=labels, brackets=brackets), degrees


def sl2_line_input() -> ProlongInput:
    """The projective-line datum: 1-dimensional abelian n_+ with gl_1."""
    nplus = LieAlgebraTable(dim=1, labels=("x",), brackets={})
    return ProlongInput(nplus=nplus, degrees=(1,), n0_mats=(
        [{0: Fraction(1)}],
    ))


def direct_sum_input(a: ProlongInput, b: ProlongInput) -> ProlongInput:
    """Block sum of two degree-1-only abelian inputs."""
    for inp in (a, b):
        if any(d != 1 for d in inp.degrees):
            raise ValueError("direct sum needs degree 1 only")
        if inp.nplus.brackets:
            raise ValueError("direct sum needs abelian factors")
    n, m = a.dim, b.dim
    nplus = LieAlgebraTable(
        dim=n + m,
        labels=tuple(a.nplus.labels) + tuple(b.nplus.labels),
        brackets={},
    )
    mats = []
    for mat in a.n0_mats:
        mats.append([dict(mat[j]) for j in range(n)] + [dict() for _ in range(m)])
    for mat in b.n0_mats:
        mats.append([dict() for _ in range(n)]
                    + [{k + n: v for k, v in mat[j].items()} for j in range(m)])
    return ProlongInput(nplus=nplus, degrees=(1,) * (n + m), n0_mats=tuple(mats))


@dataclass
class DirectSumReport:
    dims_a: dict
    dims_b: dict
    dims_sum: dict
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def direct_sum_check(a: ProlongInput, b: ProlongInput, k_max: int,
                     allow_deep: bool = False) -> DirectSumReport:
    """Prolongation dims of a block sum equal the componentwise sums."""
    ra = prolongation(a, k_max, allow_deep=allow_deep)
    rb = prolongation(b, k_max, allow_deep=allow_deep)
    rs = prolongation(direct_sum_input(a, b), k_max, allow_deep=allow_deep)
    ok = all(
        rs.dims[k] == ra.dims[k] + rb.dims[k] for k in range(1, k_max + 1)
    )
    return DirectSumReport(
        dims_a=ra.dims, dims_b=rb.dims, dims_sum=rs.dims,
        status="PASS" if ok else "FAIL",
    )


def xvv_in_oracle(k_max: int) -> bool:
    """For b in f_{-k}, k >= 1: [[b, d/dt], d/dt] != 0 unless b = 0.

    Checked on the 1-dimensional graded pieces; scaling a in f_1 multiplies
    the double bracket by a nonzero square.
    """
    table, degrees = formal_vector_field_oracle(k_max)
    a = {0: Fraction(1)}  # d/dt
    for idx, d in enumerate(degrees):
        if d <= -1:
            # the double bracket raises degree, so truncation never clips it
            b = {idx: Fraction(1)}
            if not table.bracket(table.bracket(b, a), a):
                return False
    return True


@dataclass
class Sl2MatchReport:
    status: str
    scalars: tuple | None


def truncation_matches_sl2(chev_a1: LieAlgebraTable) -> Sl2MatchReport:
    """Graded isomorphism of the degree-(-1..1) truncation with sl2.

    Searches the scaling maps e -> x*d/dt, h -> z*t d/dt, f -> y*t^2 d/dt and
    verifies every bracket relation of the A1 Chevalley table.
    """
    table, degrees = formal_vector_field_oracle(1)
    # A1 Chevalley layout: h, e, f
    h, e, f = 0, 1, 2
    # trunc layout: d/dt (deg 1), t d/dt (deg 0), t^2 d/dt (deg -1)
    E, H, F = {0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}
    # [H', E'] = z*x*[t d, d] must equal 2 x d; solve z, then xy
    c1 = table.bracket(H, E).get(0, Fraction(0))
    if not c1:
        return Sl2MatchReport("FAIL", None)
    z = Fraction(2) / c1
    c2 = table.bracket(E, F).get(1, Fraction(0))
    if not c2:
        return Sl2MatchReport("FAIL", None)
    x = Fraction(1)
    y = z / (x * c2)

    def img(vec: Vec) -> Vec:
        out: Vec = {}
        vec_add_scaled(out, E, vec.get(e, Fraction(0)) * x)
        vec_add_scaled(out, H, vec.get(h, Fraction(0)) * z)
        vec_add_scaled(out, F, vec.get(f, Fraction(0)) * y)
        return out

    for i in range(3):
        for j in range(3):
            lhs = img(chev_a1.bracket({i: Fraction(1)}, {j: Fraction(1)}))
            rhs = table.bracket(img({i: Fraction(1)}), img({j: Fraction(1)}))
            if lhs != rhs:
                return Sl2MatchReport("FAIL", None)
    return Sl2MatchReport("PASS", (x, y, z))


@dataclass
class AdjointFixtureReport:
    status: str
    phi_a_a: Vec
    double_bracket: Vec
    lhs: Vec
    rhs: Vec


def sl2_adjoint_check() -> AdjointFixtureReport:
    """The adjoint-representation computation with w0 = t^2 d/dt.

    With a = d/dt and phi = [t^3 d/dt, .] the two iterated actions on w0
    come out as -12 t d/dt and +12 t d/dt: equal and opposite, nonzero.
    """
    table, degrees = formal_vector_field_oracle(4)
    a = {0: Fraction(1)}            # d/dt
    w0 = {2: Fraction(1)}           # t^2 d/dt
    t3 = {3: Fraction(1)}           # t^3 d/dt
    phi_a = table.bracket(t3, a)
    phi_a_a = table.bracket(phi_a, a)              # expect 6 t d/dt
    double = table.bracket(phi_a_a, a)             # expect -6 d/dt
    lhs = table.bracket(double, w0)                # expect -12 t d/dt
    rhs = table.bracket(a, table.bracket(phi_a_a, w0))  # expect +12 t d/dt
    ok = (
        phi_a_a == {1: Fraction(6)}
        and double == {0: Fraction(-6)}
        and lhs == {1: Fraction(-12)}
        and rhs == {1: Fraction(12)}
    )
    return AdjointFixtureReport(
        status="PASS" if ok else "FAIL",
        phi_a_a=phi_a_a, double_bracket=double, lhs=lhs, rhs=rhs,
    )


def input_from_l(case, ideal: int | None = None) -> ProlongInput:
    """(l_1 abelian, ad l_0) for a case, optionally one simple ideal only."""
    s = case.s_table
    l1 = [r for r in case.l1_roots() if ideal is None or case.ideal_of_root(r) == ideal]
    pos = {r: i for i, r in enumerate(l1)}
    nplus = LieAlgebraTable(dim=len(l1), labels=tuple(str(r) for r in l1),
                            brackets={})
    mats = []
    l0_vecs = [case.coroot_vec(b) for b in case.l_simple_roots]
    l0_vecs += [case.e(r) for r in case.l0_roots()]
    if ideal is not None:
        l0_vecs = [case.coroot_vec(b) for bi, b in enumerate(case.l_simple_roots)
                   if case._node_comp[bi] == ideal]
        l0_vecs += [case.e(r) for r in case.l0_roots()
                    if case.ideal_of_root(r) == ideal]
    flat = RrefBasis(len(l1) * len(l1))
    for x in l0_vecs:
        cols = []
        for r in l1:
            raw = s.bracket(x, case.e(r))
            col = {}
            for k, c in raw.items():
                rr = case.root_of_index(k)
                col[pos[rr]] = c
            cols.append(col)
        if flat.add(_flatten(cols, len(l1))):
            mats.append(cols)
    return ProlongInput(nplus=nplus, degrees=(1,) * len(l1), n0_mats=tuple(mats))

