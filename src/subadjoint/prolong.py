"""Tanaka prolongation solver for graded nilpotent algebras.

Level k unknowns are full graded maps phi from n_+ into the accumulated
tower (degree-(d-k) values: n_+ components for positive target degree, the
derivation space n_0 at degree zero, previously computed prolongation
spaces below).  The compatibility equation

    phi([x, y]) = [phi(x), y] + [x, phi(y)]

is imposed on every basis pair.  The bracket of a tower value with n_+ is
read from one action table per level, built on first use with its nonzero
entries only: the n_+ bracket above degree zero, the derivation action at
degree zero, evaluation of the stored map below.  The kernel is computed
by exact sparse elimination.

Exact witness maps (for the main cases, the ad action of g_{-1}) lie in the
prolongation once they pass substitution, so their rank is a floor: no row
can push the kernel below their span.  `forced_rank` feeds pair rows,
highest degree sum first, into one accumulator and stops once the rank
reaches dim minus that floor.  `prolongation` then substitutes every
kernel basis map into the equation.  Substitution accumulates only the
terms that can be nonzero, found from the support of the map, the
brackets and the action tables.  A failed substitution raises
ConsistencyError, not an assert, so `python -O` keeps the check.

One `_Tower` holds a run: its input (`tower.inp`), the stored levels and
the action tables.  `_Tower.validate` checks the input, and every solve
routine here takes the tower alone.  `g_tower(g)` returns the tower of a
graded Lie algebra g = g_{-1} + ... + g_3, built in one pass over its
brackets (n_+ = g_+, n_0 = ad g_0, level 1 = ad g_{-1}); a bracket that
breaks the grading stops it with ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .liecore import (ConsistencyError, LieAlgebraTable, _check,
                      bracket_closure, bracket_index, jacobi_violations)
from .linalg import RrefBasis, Vec, span


class ProlongDepthError(RuntimeError):
    """k_max beyond the safety bound: the prolongation may be infinite."""


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


def _flatten(mat, n) -> Vec:
    out: Vec = {}
    for j, col in enumerate(mat):
        for i, v in col.items():
            out[i * n + j] = v
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
    """Target-space bookkeeping for one prolongation run.

    `action(j)` is the action table of level j: slot s of T_j maps to
    {v: coords of [basis_s, e_v] in T_{j + deg v}}, nonzero entries only.
    Each level's table is built the first time it is read, and only once
    that level's space is known; tables live as long as the tower.  The
    tables above degree zero and the substitution in `residual_is_zero`
    read n_+ through one `liecore.bracket_index`, built on first use.
    """

    def __init__(self, inp: ProlongInput):
        self.inp = inp
        comp: dict[int, list] = {}
        for i, d in enumerate(inp.degrees):
            comp.setdefault(d, []).append(i)
        self.comp_list = {d: tuple(ix) for d, ix in comp.items()}
        self.pos_in_comp = {
            d: {g: i for i, g in enumerate(ix)} for d, ix in self.comp_list.items()
        }
        self.bases: dict[int, list[TaggedMap]] = {}  # level j -> maps
        self._actions: dict[int, list[dict]] = {}

    def space_dim(self, j: int) -> int:
        if j >= 1:
            return len(self.comp_list.get(j, ()))
        if j == 0:
            return self.inp.n0_dim
        return len(self.bases.get(-j, ()))

    def action(self, j: int) -> list[dict]:
        """The action table of level j (see the class docstring).

        For j >= 1 it is read off the n_+ brackets, for j = 0 off the
        derivation matrices, for j < 0 off the stored maps of level -j; a
        level not stored yet has an empty space, and no table is kept.
        """
        table = self._actions.get(j)
        if table is not None:
            return table
        if j < 0 and -j not in self.bases:
            return []
        inp = self.inp
        if j < 0:
            sources = (enumerate(psi) for psi in self.bases[-j])
        elif j == 0:
            sources = (enumerate(mat) for mat in inp.n0_mats)
        else:
            ad = self.bracket_index[0]
            sources = (ad[w].items() for w in self.comp_list.get(j, ()))
        table = [self._table_row(j, raws) for raws in sources]
        self._actions[j] = table
        return table

    def _table_row(self, j: int, raws) -> dict:
        """{v: coords} over (v, raw) pairs: raw is a value in T_{j + deg v},
        an n_+ vector for j >= 0 and coordinates already for j < 0; zero
        entries and empty values are dropped."""
        out = {}
        for v, raw in raws:
            coords = {w: c for w, c in raw.items() if c}
            if coords:
                if j >= 0:
                    pos = self.pos_in_comp[j + self.inp.degrees[v]]
                    coords = {pos[w]: c for w, c in coords.items()}
                out[v] = coords
        return out

    @cached_property
    def bracket_index(self) -> tuple[list[dict], list[list]]:
        """`liecore.bracket_index` of n_+, built on first use."""
        return bracket_index(self.inp.nplus)

    def validate(self) -> None:
        """Raise ConsistencyError unless n_+ is a graded Lie algebra
        generated in degree 1 and n_0 a commutator-closed family of
        independent degree-preserving derivations.

        The checks run in this order, each relying on those before it:
        degrees, generation in degree 1 (one `bracket_closure`), Jacobi
        (ad(x) a derivation for x in degree 1, by the lemma of
        `liecore.check_jacobi`), degree additivity, degree preservation,
        then per n_0 element the derivation property and independence, then
        closure.  A derivation of an n_+ generated in degree 1 is fixed by
        its degree-1 block A_1, so derivations are independent exactly when
        their blocks are, and [A, B], itself a degree-preserving derivation,
        lies in their span exactly when [A, B]|_1 = A_1 B_1 - B_1 A_1 lies
        in the span of the blocks: both are tested on the blocks.  The
        Jacobi check reads the tower's bracket index and the derivation
        checks its level-0 action table.
        """
        inp = self.inp
        n, degrees = inp.dim, inp.degrees
        _check(len(degrees) == n and all(d >= 1 for d in degrees),
               "degrees must be >= 1, one per basis vector")
        ones = self.comp_list.get(1, ())
        gens = [{i: 1} for i in ones]
        _check(bracket_closure(inp.nplus, gens, gens).rank == n,
               "degree-1 component does not generate")
        _check(not jacobi_violations(*self.bracket_index, ones),
               "n_+ violates Jacobi")
        for (i, j), vec in inp.nplus.brackets.items():
            dd = degrees[i] + degrees[j]
            _check(all(degrees[k] == dd for k in vec),
                   f"bracket ({i}, {j}) is not additive in degree")
        for a, mat in enumerate(inp.n0_mats):
            _check(all(degrees[k] == degrees[j]
                       for j, col in enumerate(mat) for k in col),
                   f"n0 element {a} is not degree-preserving")
        # a degree-preserving derivation is a level-0 solution of the
        # compatibility equation; its columns are its row of the level-0
        # action table, whose degree-1 sources hold its degree-1 block
        m = len(ones)
        flat = RrefBasis(m * m)
        cols, rows = [], []  # per element: {k: column k}, {k: row k} of A_1
        for a, slot in enumerate(self.action(0)):
            phi = [slot.get(j, {}) for j in range(n)]
            _check(residual_is_zero(self, 0, phi),
                   f"n0 element {a} is not a derivation")
            block = [phi[j] for j in ones]
            _check(flat.add(_flatten(block, m)),
                   "n0 matrices are linearly dependent")
            cols.append({k: col for k, col in enumerate(block) if col})
            row: dict[int, Vec] = {}
            for j, col in enumerate(block):
                for i, v in col.items():
                    row.setdefault(i, {})[j] = v
            rows.append(row)
        diagonal = [all(col.keys() == {k} for k, col in x.items()) for x in cols]
        for a in range(len(cols)):
            for b in range(a + 1, len(cols)):
                if diagonal[a] and diagonal[b]:
                    continue  # diagonal matrices commute
                # (XY)_ij = sum_k X_ik Y_kj over the k where column k of X
                # and row k of Y are both nonzero
                comm: Vec = {}
                for X, Y, sign in ((cols[a], rows[b], 1), (cols[b], rows[a], -1)):
                    for k in X.keys() & Y.keys():
                        yk = Y[k]
                        for i, v in X[k].items():
                            sv = sign * v
                            for j, c in yk.items():
                                key = i * m + j
                                comm[key] = comm.get(key, 0) + sv * c
                _check(not any(comm.values()) or flat.contains(comm),
                       "n0 not closed under commutator")


def unknown_layout(tower: _Tower, k: int):
    """(offsets, sizes, total) of the level-k unknowns: phi(u) takes
    sizes[u] columns from offsets[u] on."""
    sizes = [tower.space_dim(d - k) for d in tower.inp.degrees]
    offsets = [0, *accumulate(sizes)]
    return offsets[:-1], sizes, offsets[-1]


def pair_rows(tower: _Tower, k: int, offsets, u: int, v: int,
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
    inp = tower.inp
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
    table = tower.action(du - k)
    for s in slots(u):
        coords = table[s].get(v)
        if coords:
            stamp(offsets[u] + s, coords, -1)
    # -[u, phi(v)] = +[phi(v), u]
    table = tower.action(dv - k)
    for s in slots(v):
        coords = table[s].get(u)
        if coords:
            stamp(offsets[v] + s, coords, +1)
    return [row for _, row in sorted(bycoord.items()) if row]


def forced_rank(tower: _Tower, k: int, offsets, ncols: int,
                floor: int) -> tuple[RrefBasis, bool]:
    """Eliminate the level-k pair rows until the rank reaches ncols - floor.

    `floor` is the rank of maps known to solve level k: no row can push the
    kernel below their span, so at that rank elimination is complete and
    the remaining rows are never built.  Pairs come highest degree sum
    first (index order within a sum), which reaches the rank after fewer
    rows than index order.  Returns the accumulator and whether rows were
    left when it stopped.
    """
    n, degrees = tower.inp.dim, tower.inp.degrees
    pairs = sorted(((u, v) for u in range(n) for v in range(u + 1, n)),
                   key=lambda p: -degrees[p[0]] - degrees[p[1]])
    acc = RrefBasis(ncols)
    for u, v in pairs:
        for row in pair_rows(tower, k, offsets, u, v):
            if acc.rank >= ncols - floor:
                return acc, True
            acc.add(row)
    return acc, False


def _kernel_vec_to_map(offsets, sizes, vec: Vec) -> TaggedMap:
    return [{s: c for s in range(size) if (c := vec.get(base + s))}
            for base, size in zip(offsets, sizes)]


def residual_is_zero(tower: _Tower, k: int, phi: TaggedMap) -> bool:
    """Substitute phi back into the compatibility equation on every pair.

    The residual phi([u, v]) - [phi(u), v] + [phi(v), u] of each pair u < v
    is accumulated term by term from the support of phi: phi(w) for the
    pairs whose bracket has a w term, and [phi(u), v] for the entries of
    the action table at the slots of phi(u).  Every other term vanishes.
    A pair whose target space is empty has no equation.
    """
    degrees = tower.inp.degrees
    terms = tower.bracket_index[1]
    support = [u for u, block in enumerate(phi) if block]
    tables = {d: tower.action(d - k) for d in {degrees[u] for u in support}}
    total: dict = {}  # (u, v, coordinate) -> value
    for w in support:
        block = phi[w]
        for u, v, cw in terms[w]:
            for m, c in block.items():
                key = (u, v, m)
                total[key] = total.get(key, 0) + cw * c
        # [phi(w), v] enters the pair (w, v) with sign -1, (v, w) with +1
        table = tables[degrees[w]]
        for s, c in block.items():
            for v, coords in table[s].items():
                if v == w:
                    continue
                lo, hi, sc = (w, v, -c) if w < v else (v, w, c)
                for m, x in coords.items():
                    key = (lo, hi, m)
                    total[key] = total.get(key, 0) + sc * x
    return not any(c and tower.space_dim(degrees[u] + degrees[v] - k)
                   for (u, v, _), c in total.items())


def prolongation(inp: ProlongInput, k_max: int, witnesses: dict | None = None,
                 allow_deep: bool = False) -> ProlongResult:
    """Compute prolongation dimensions and bases up to k_max.

    witnesses maps a level k to exact maps known to lie in the k-th
    prolongation; they are verified by substitution and their rank is the
    floor at which `forced_rank` stops.  `stopped_early[k]` says whether it
    stopped with rows left.  Raises ProlongDepthError for k_max beyond
    DEPTH_LIMIT unless allow_deep, and ConsistencyError if the input
    fails `_Tower.validate` or a witness or kernel map fails
    substitution.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > DEPTH_LIMIT and not allow_deep:
        raise ProlongDepthError(
            f"k_max={k_max} exceeds the safety bound {DEPTH_LIMIT}; pass "
            f"allow_deep=True for inputs with known infinite prolongations"
        )
    tower = _Tower(inp)
    tower.validate()
    witnesses = witnesses or {}
    dims: dict[int, int] = {}
    stopped: dict[int, bool] = {}

    for k in range(1, k_max + 1):
        offsets, sizes, ncols = unknown_layout(tower, k)
        wits = witnesses.get(k, [])
        _check(all(residual_is_zero(tower, k, phi) for phi in wits),
               f"witness map fails the compatibility equation at level {k}")
        acc, stopped[k] = forced_rank(tower, k, offsets, ncols,
                                      witness_rank(wits))
        dims[k] = acc.kernel_dim()
        basis = [_kernel_vec_to_map(offsets, sizes, vec)
                 for vec in acc.kernel_basis()]
        _check(all(residual_is_zero(tower, k, phi) for phi in basis),
               f"solver kernel fails substitution at level {k}")
        tower.bases[k] = basis

    res = ProlongResult(
        dims=dims,
        bases={k: tower.bases.get(k, []) for k in dims},
        stopped_early=stopped,
    )
    _check(res.monotone_vanishing_ok(), "vanishing is not monotone")
    return res


# --------------------------------------------------------------------------
# The tower of a GAlgebra
# --------------------------------------------------------------------------

def g_tower(g) -> _Tower:
    """The tower of g itself: n_+ = g_+, n_0 = ad g_0, level 1 = ad g_{-1}.

    One pass over the stored brackets of g builds all three, each bracket
    [x, u] with u in g_+ read with x first when x lies in g_0 or g_{-1}.
    n_+ vectors are written over g_+ in g-index order, and a tower value in
    degree d by its position in `g.components()[d]` (n_0 coordinates at
    d = 0, valid because ad is faithful on g_0).  Deeper levels are empty,
    so level k has the unknowns of C^{-k,1} = Hom(g_+, g)_{-k}: columns
    (u, w) for u in g_+ and w in g_{deg u - k}, both in g-index order.

    A bracket with a g_+ element and a term outside g_{deg i + deg j}
    raises ConsistencyError.  The input is not validated otherwise
    (the returned tower's `validate` does that), so a corrupted table still
    yields rows and the checks built on them FAIL instead of raising.
    """
    t, degree = g.table, g.degree
    comps = g.components()
    slot = {i: s for ix in comps.values() for s, i in enumerate(ix)}
    gplus = [i for i, d in enumerate(degree) if d >= 1]
    pos = {i: n for n, i in enumerate(gplus)}
    brackets = {}
    n0_mats = [[{} for _ in gplus] for _ in comps.get(0, ())]
    ad_maps = [[{} for _ in gplus] for _ in comps.get(-1, ())]
    for (i, j), vec in t.brackets.items():
        di, dj = degree[i], degree[j]
        if di < 1 and dj < 1:
            continue
        if any(degree[w] != di + dj for w in vec):
            raise ConsistencyError(
                f"[{t.labels[i]}, {t.labels[j]}] is not in g_{di + dj}: "
                f"the grading of g is not additive")
        if di >= 1 and dj >= 1:
            if vec:
                brackets[(pos[i], pos[j])] = {pos[w]: c for w, c in vec.items()}
            continue
        if di > dj:
            i, j, di, vec = j, i, dj, {w: -c for w, c in vec.items()}
        if di == 0:
            n0_mats[slot[i]][pos[j]] = {pos[w]: c for w, c in vec.items()}
        elif di == -1:
            ad_maps[slot[i]][pos[j]] = {slot[w]: c for w, c in vec.items()}
    nplus = LieAlgebraTable(dim=len(gplus),
                            labels=tuple(t.labels[i] for i in gplus),
                            brackets=brackets)
    tower = _Tower(ProlongInput(nplus=nplus,
                                degrees=tuple(degree[i] for i in gplus),
                                n0_mats=tuple(n0_mats)))
    tower.bases[1] = ad_maps
    return tower


def witness_rank(maps: list[TaggedMap]) -> int:
    """Exact rank of a family of tagged maps (injectivity check)."""
    if not maps:
        return 0
    width = 1
    for phi in maps:
        for block in phi:
            if block:
                width = max(width, 1 + max(block))
    return span(width * len(maps[0]),
                ({u * width + s: c for u, block in enumerate(phi)
                  for s, c in block.items()} for phi in maps)).rank
