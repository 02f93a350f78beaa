"""Generic finite-dimensional graded Lie algebra machinery over Q.

Everything is exact: vectors are sparse {index: value} dicts whose values
are exact rationals, `int` when integral; brackets are sparse
structure-constant tables; a grading diagonal in the basis is its degree
map; a subspace is the `linalg.RrefBasis` of its span.  Tables are
immutable by convention after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .linalg import (RrefBasis, SparseRationalMatrix, Vec, span,
                     vec_add_scaled, vec_scale)


class InvalidGradingElement(ValueError):
    """ad(h) is not diagonalizable with integer spectrum over Q."""


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


def check_jacobi(L: LieAlgebraTable) -> list[tuple[int, int, int]]:
    """All basis triples of L violating Jacobi (see `jacobi_violations`)."""
    return jacobi_violations(*bracket_index(L))


def jacobi_violations(ad: list[dict], terms: list[list]
                      ) -> list[tuple[int, int, int]]:
    """All basis triples violating Jacobi, read off the `bracket_index`
    (ad, terms) of a table.  Empty list iff Jacobi holds.

    J(a, b, c) = [[a, b], c] - [[a, c], b] + [[b, c], a] is accumulated,
    for a < b < c, from its nonzero products only, one smallest index a at
    a time: the [[a, y], z] products are read off ad(a), the [[b, c], a]
    products off the term index k -> (b, c, [b, c]_k) of `bracket_index`.
    A triple with no nonzero product satisfies the identity term by term.
    The violations come in lexicographic order.  No weight grading of the
    basis is assumed: a table breaking weight homogeneity is among the
    faults to catch.
    """
    violations = []
    for a in range(len(ad)):
        acc: dict[tuple[int, int], dict] = {}
        for y, ay in ad[a].items():
            if y < a:
                continue
            for k, coef in ay.items():
                for z, kz in ad[k].items():
                    if z <= a or z == y:
                        continue
                    # [[a, y], z] is + in J(a, y, z) and - in J(a, z, y)
                    key, sign = ((y, z), coef) if y < z else ((z, y), -coef)
                    total = acc.setdefault(key, {})
                    for m, w in kz.items():
                        total[m] = total.get(m, 0) + sign * w
        for k in ad[a]:
            ka = ad[k][a]
            for b, c, coef in terms[k]:
                if b > a:
                    total = acc.setdefault((b, c), {})
                    for m, w in ka.items():
                        total[m] = total.get(m, 0) + coef * w
        violations.extend((a, b, c) for (b, c), total in sorted(acc.items())
                          if any(total.values()))
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
    InvalidGradingElement.
    """
    cols = L.ad_columns(h)
    degree = {}
    for j, col in enumerate(cols):
        if not set(col) <= {j}:
            raise InvalidGradingElement(
                f"ad(h) is not diagonal in the basis (column {j})")
        ev = col.get(j, 0)
        if ev.denominator != 1:
            raise InvalidGradingElement(f"non-integer eigenvalue {ev}")
        degree[j] = int(ev)
    return Grading(degree=degree)


def contact_grading(L: LieAlgebraTable, rs) -> Grading:
    """The 5-grading of a simple algebra by the coroot of the highest root.

    Basis layout must be the chevalley_table layout for rs.  The extreme
    components are 1-dimensional; InvalidGradingElement is raised otherwise.
    """
    cor = rs.coroot_coords(rs.highest_root)
    h: Vec = {i: c for i, c in enumerate(cor) if c}
    g = grade_by_element(L, h)
    dims = g.dims()
    if not set(dims) <= {-2, -1, 0, 1, 2}:
        raise InvalidGradingElement(
            f"contact grading degrees {list(dims)} out of range")
    if not dims.get(2) == dims.get(-2) == 1:
        raise InvalidGradingElement("extreme contact components must be lines")
    return g


def line_stabilizer(L: LieAlgebraTable, v: Vec, action: Callable[[Vec, Vec], Vec],
                    module_dim: int) -> RrefBasis:
    """{x in L : action(x, v) in span(v)}, as the reduced echelon basis of
    its span in the coordinates of L.

    Solved as a kernel: unknowns are the coefficients of x plus one scalar t
    with action(x, v) = t*v.
    """
    columns = [action({i: 1}, v) for i in range(L.dim)] + [vec_scale(v, -1)]
    ker = SparseRationalMatrix.from_columns(
        [{m: c for m, c in col.items() if m < module_dim} for col in columns]
    ).kernel()
    return span(L.dim, ({i: c for i, c in k.items() if i < L.dim}
                        for k in ker))
