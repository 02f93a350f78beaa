"""Generic finite-dimensional graded Lie algebra machinery over Q.

Everything is exact: vectors are sparse {index: value} dicts whose values
are exact rationals, `int` when integral; brackets are sparse
structure-constant tables; a grading diagonal in the basis is its degree
map; a subspace is the `linalg.RrefBasis` of its span, and a span of
iterated brackets one `bracket_closure`.  A line stabilizer is taken
inside one table, over a basis of the subalgebra given as vectors of that
table, so a subalgebra needs no table of its own.  Jacobi is checked on a
generating set.  Tables are immutable by convention once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import (RrefBasis, Vec, kernel_combinations, span,
                     vec_add_scaled)


class ConsistencyError(Exception):
    """An input breaks a property the construction relies on: root data, a
    Chevalley table, a grading, a case or its g disagreeing with an
    independent construction, or a prolongation input.  The message names
    the property."""


def _check(ok: bool, message: str) -> None:
    """Raise ConsistencyError unless ok (an assert would vanish under -O)."""
    if not ok:
        raise ConsistencyError(message)


@dataclass
class LieAlgebraTable:
    """Finite-dimensional Lie algebra as a sparse bracket table.

    brackets holds (i, j) -> sparse vector for i < j only; the (j, i)
    bracket is the negation.  Absent keys mean zero.  Construction stores
    every integral constant as an `int`, in place, so products of table
    entries stay in integer arithmetic.
    """

    dim: int
    labels: tuple
    brackets: dict = field(default_factory=dict)

    def __post_init__(self):
        for vec in self.brackets.values():
            for k, c in vec.items():
                if type(c) is not int and c.denominator == 1:
                    vec[k] = int(c)

    def bracket_basis(self, i: int, j: int) -> Vec:
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def bracket(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i == j:
                    continue
                c = xi * yj
                if i < j:
                    b = self.brackets.get((i, j))
                    if b:
                        vec_add_scaled(out, b, c)
                else:
                    b = self.brackets.get((j, i))
                    if b:
                        vec_add_scaled(out, b, -c)
        return out

    def ad_columns(self, x: Vec) -> list[Vec]:
        """Columns of ad(x): image of each basis vector."""
        return [self.bracket(x, {j: 1}) for j in range(self.dim)]


def bracket_index(L: LieAlgebraTable) -> tuple[list[dict], list[list]]:
    """(ad, terms) over the nonzero stored brackets of L.

    ad[i][j] = [e_i, e_j], as bracket_basis reads it, for both orders of
    each stored pair; terms[k] = [(i, j, c)], i < j, for [e_i, e_j]_k = c.
    The one place a bracket table is indexed by its rows or its terms.
    """
    n = L.dim
    ad: list[dict] = [{} for _ in range(n)]
    terms: list[list] = [[] for _ in range(n)]
    for (i, j), vec in L.brackets.items():
        if vec and i < j:
            ad[i][j] = vec
            ad[j][i] = {k: -c for k, c in vec.items()}
            for k, c in vec.items():
                terms[k].append((i, j, c))
    return ad, terms


def bracket_closure(L: LieAlgebraTable, xs: list[Vec], start: list[Vec]
                    ) -> RrefBasis:
    """The span of start and of its iterated brackets [x, .], x in xs, on
    the table as given.  Each vector that enlarges the span is bracketed
    with every x; by linearity the others add nothing."""
    acc = RrefBasis(L.dim)
    todo = [v for v in start if acc.add(v)]
    while todo:
        w = todo.pop()
        todo += [y for y in (L.bracket(x, w) for x in xs) if acc.add(y)]
    return acc


def check_jacobi(L: LieAlgebraTable, S: list[int]) -> list[tuple]:
    """The `jacobi_violations` of L on the basis vectors S, which must
    generate L (ConsistencyError otherwise); empty iff Jacobi holds.

    Lemma.  In any bilinear antisymmetric table, D = {x : ad x is a
    derivation} is a subalgebra: for x, y in D, ad[x, y] = [ad x, ad y], a
    commutator of derivations.  So S in D, with the iterated brackets of S
    spanning L (`bracket_closure`), gives D = L: a table that breaks Jacobi
    FAILs on S, or S fails to generate.
    """
    gens = [{x: 1} for x in S]
    rank = bracket_closure(L, gens, gens).rank
    _check(rank == L.dim, f"generators do not generate: {rank} of {L.dim}")
    return jacobi_violations(*bracket_index(L), S)


def jacobi_violations(ad: list[dict], terms: list[list], S: list[int]
                      ) -> list[tuple[int, int, int]]:
    """The basis triples (x, y, z), x in S, y < z, x not in {y, z}, with
    J(x, y, z) = [[x, y], z] - [[x, z], y] + [[y, z], x] != 0, in the order
    of S, then (y, z); J(x, ., .) = 0 says ad(x) is a derivation.

    Read off the `bracket_index` (ad, terms) of a table, from the nonzero
    products only, one x at a time: [[x, y], z] off ad(x), [[y, z], x] off
    the term index.  No weight grading of the basis is assumed: a table
    breaking weight homogeneity is among the faults to catch.
    """
    violations = []
    for x in S:
        acc: dict[tuple[int, int], dict] = {}
        for y, xy in ad[x].items():
            for k, coef in xy.items():
                for z, kz in ad[k].items():
                    if z == x or z == y:
                        continue
                    # [[x, y], z] is + in J(x, y, z) and - in J(x, z, y)
                    key, sign = ((y, z), coef) if y < z else ((z, y), -coef)
                    total = acc.setdefault(key, {})
                    for m, w in kz.items():
                        total[m] = total.get(m, 0) + sign * w
        for k in ad[x]:
            kx = ad[k][x]
            for y, z, coef in terms[k]:
                if x != y and x != z:
                    total = acc.setdefault((y, z), {})
                    for m, w in kx.items():
                        total[m] = total.get(m, 0) + coef * w
        violations.extend((x, y, z) for y, z in sorted(
            key for key, total in acc.items() if any(total.values())))
    return violations


# --------------------------------------------------------------------------
# Gradings
# --------------------------------------------------------------------------

@dataclass
class Grading:
    """Integer grading of a LieAlgebraTable, diagonal in its basis: degree
    maps each basis index to its degree."""

    degree: dict

    def dims(self) -> dict:
        """Dimension of each graded piece, by ascending degree."""
        out: dict[int, int] = {}
        for d in self.degree.values():
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))


def grade_by_element(L: LieAlgebraTable, h: Vec) -> Grading:
    """Eigenspace decomposition of ad(h), which must be diagonal in the
    basis of L with integer eigenvalues.

    That holds whenever h lies in the Cartan subalgebra of a Chevalley-basis
    table, the only gradings the verifier builds; any other h raises
    ConsistencyError.
    """
    cols = L.ad_columns(h)
    degree = {}
    for j, col in enumerate(cols):
        _check(set(col) <= {j},
               f"ad(h) is not diagonal in the basis (column {j})")
        ev = col.get(j, 0)
        _check(ev.denominator == 1, f"non-integer eigenvalue {ev}")
        degree[j] = int(ev)
    return Grading(degree=degree)


def contact_grading(L: LieAlgebraTable, rs) -> Grading:
    """The 5-grading of a simple algebra by the coroot of the highest root.

    Basis layout must be the chevalley_table layout for rs.  The extreme
    components are 1-dimensional; ConsistencyError is raised otherwise.
    """
    cor = rs.coroot_coords(rs.highest_root)
    h: Vec = {i: c for i, c in enumerate(cor) if c}
    g = grade_by_element(L, h)
    dims = g.dims()
    _check(set(dims) <= {-2, -1, 0, 1, 2},
           f"contact grading degrees {list(dims)} out of range")
    _check(dims.get(2) == dims.get(-2) == 1,
           "extreme contact components must be lines")
    return g


def line_stabilizer(L: LieAlgebraTable, basis: list[Vec], v: Vec) -> RrefBasis:
    """{x in span(basis) : [x, v] in C v}, as the reduced echelon basis of
    its span in the coordinates of L.

    The kernel of x -> [x, v] modulo the line through v, on the
    combinations of basis; v = 0 gives all of span(basis).
    """
    line = span(L.dim, [v])
    return span(L.dim, kernel_combinations(
        basis, lambda x: line.reduce(L.bracket(x, v))))
