"""Generic finite-dimensional graded Lie algebra machinery over Q.

Everything is exact: vectors are sparse {index: value} dicts whose values
are exact rationals, `int` when integral; brackets are sparse
structure-constant tables; subspaces are canonical reduced echelon
matrices with cleared denominators.  Tables are immutable by
convention after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from .linalg import RrefBasis, SparseRationalMatrix, Vec, vec_add_scaled


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
                if c.denominator == 1:
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


def check_antisymmetry(L: LieAlgebraTable) -> bool:
    """Structural given the storage scheme; spot-checks bracket symmetry."""
    for (i, j), v in L.brackets.items():
        if i >= j:
            return False
        back = L.bracket_basis(j, i)
        if {k: -c for k, c in v.items()} != back:
            return False
    return True


def check_jacobi(L: LieAlgebraTable) -> list[tuple[int, int, int]]:
    """All basis triples violating Jacobi.  Empty list iff Jacobi holds.

    Checks every triple a < b < c with at least one nonzero pairwise
    bracket (the others satisfy the identity term by term), read off the
    table alone: every c > b when [a, b] != 0, else the c > b bracketing
    nontrivially with a or b.  No weight grading of the basis is assumed:
    a table breaking weight homogeneity is among the faults to catch.
    """
    n = L.dim
    # ad[i][j] = [e_i, e_j] as read by bracket()
    ad: list[dict] = [{} for _ in range(n)]
    for (i, j), vec in L.brackets.items():
        if vec and i < j:
            ad[i][j] = vec
            ad[j][i] = {k: -c for k, c in vec.items()}

    def violates(a: int, b: int, c: int) -> bool:
        total: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            xy = ad[x].get(y)
            if not xy:
                continue
            for k, coef in xy.items():
                kz = ad[k].get(z)
                if kz:
                    for m, w in kz.items():
                        total[m] = total.get(m, 0) + coef * w
        return any(total.values())

    violations = []
    for a in range(n):
        ad_a = ad[a]
        for b in range(a + 1, n):
            if b in ad_a:
                cs = range(b + 1, n)
            else:
                cs = sorted(c for c in ad_a.keys() | ad[b].keys() if c > b)
            violations.extend((a, b, c) for c in cs if violates(a, b, c))
    return violations


# --------------------------------------------------------------------------
# Subspaces
# --------------------------------------------------------------------------

def _canonical_rows(acc: RrefBasis) -> tuple:
    """Primitive integer rows from a reduced echelon basis, pivot order."""
    rows = []
    for piv in sorted(acc.rows):
        row = acc.rows[piv]
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        ints = {k: int(v * den) for k, v in row.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if g:
            ints = {k: v // g for k, v in ints.items()}
        lead = ints[piv]
        if lead < 0:
            ints = {k: -v for k, v in ints.items()}
        rows.append(tuple(sorted(ints.items())))
    return tuple(rows)


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace: equal subspaces have identical basis matrices."""

    ambient_dim: int
    rows: tuple  # tuple of tuples of (index, int) pairs, echelon order

    @classmethod
    def from_vectors(cls, ambient_dim: int, vecs) -> "Subspace":
        acc = RrefBasis(ambient_dim)
        for v in vecs:
            acc.add(v)
        return cls(ambient_dim, _canonical_rows(acc))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim, [{i: 1} for i in range(ambient_dim)]
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def basis_vectors(self) -> list[Vec]:
        return [dict(row) for row in self.rows]

    def _acc(self) -> RrefBasis:
        acc = RrefBasis(self.ambient_dim)
        for v in self.basis_vectors():
            acc.add(v)
        return acc

    def contains(self, vec: Vec) -> bool:
        return self._acc().contains(vec)

    def span_with(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(
            self.ambient_dim, self.basis_vectors() + other.basis_vectors()
        )

    def intersection(self, other: "Subspace") -> "Subspace":
        """Solve lam*A = mu*B by stacking [A^T | -B^T] and reading kernels."""
        a = self.basis_vectors()
        b = other.basis_vectors()
        if not a or not b:
            return Subspace.zero(self.ambient_dim)
        rows = []
        for i in range(self.ambient_dim):
            row: Vec = {}
            for j, v in enumerate(a):
                if i in v:
                    row[j] = v[i]
            for j, v in enumerate(b):
                if i in v:
                    row[len(a) + j] = -v[i]
            if row:
                rows.append(row)
        ker = SparseRationalMatrix.from_rows(rows, len(a) + len(b)).kernel()
        vecs = []
        for lam in ker:
            v: Vec = {}
            for j, coef in lam.items():
                if j < len(a):
                    vec_add_scaled(v, a[j], coef)
            if v:
                vecs.append(v)
        return Subspace.from_vectors(self.ambient_dim, vecs)


# --------------------------------------------------------------------------
# Gradings
# --------------------------------------------------------------------------

@dataclass
class Grading:
    """Integer grading of a LieAlgebraTable.

    degree maps basis index -> degree when the grading is diagonal in the
    chosen basis (all our constructed gradings are); components always hold
    the graded pieces as canonical subspaces.
    """

    degree: dict | None
    components: dict  # int -> Subspace

    def component(self, d: int, ambient_dim: int) -> Subspace:
        return self.components.get(d, Subspace.zero(ambient_dim))

    def degrees(self) -> list[int]:
        return sorted(self.components)

    def dims(self) -> dict:
        return {d: s.dim for d, s in sorted(self.components.items())}


def bracket_additivity_violations(L: LieAlgebraTable, g: Grading) -> list:
    """Pairs (i, j) of component degrees with [g_i, g_j] not in g_{i+j}."""
    bad = []
    degs = g.degrees()
    for di in degs:
        for dj in degs:
            if dj < di:
                continue
            target = g.components.get(di + dj)
            for x in g.components[di].basis_vectors():
                for y in g.components[dj].basis_vectors():
                    b = L.bracket(x, y)
                    if not b:
                        continue
                    if target is None or not target.contains(b):
                        bad.append((di, dj))
                        break
                else:
                    continue
                break
    return bad


def grade_by_element(L: LieAlgebraTable, h: Vec) -> Grading:
    """Eigenspace decomposition of ad(h); requires integer spectrum.

    Fast path: ad(h) diagonal in the given basis (true whenever h lies in a
    Cartan subalgebra of a Chevalley-basis table).  Otherwise candidate
    integer eigenvalues are scanned inside the Gershgorin bound and the
    eigenspaces must fill the whole algebra.
    """
    cols = L.ad_columns(h)
    diagonal = all(set(col) <= {j} for j, col in enumerate(cols))
    if diagonal:
        degree = {}
        for j, col in enumerate(cols):
            ev = col.get(j, 0)
            if ev.denominator != 1:
                raise InvalidGradingElement(f"non-integer eigenvalue {ev}")
            degree[j] = int(ev)
        comps: dict[int, list] = {}
        for j, d in degree.items():
            comps.setdefault(d, []).append({j: 1})
        components = {
            d: Subspace.from_vectors(L.dim, vs) for d, vs in comps.items()
        }
        return Grading(degree=degree, components=components)

    bound = 0
    for j, col in enumerate(cols):
        s = sum(abs(v) for v in col.values())
        bound = max(bound, s)
    bound = int(bound) + 1
    components = {}
    total = 0
    for lam in range(-bound, bound + 1):
        rows = []
        for i in range(L.dim):
            row: Vec = {}
            for j, col in enumerate(cols):
                v = col.get(i, 0)
                if i == j:
                    v -= lam
                if v:
                    row[j] = v
            if row:
                rows.append(row)
        ker = SparseRationalMatrix.from_rows(rows, L.dim).kernel()
        if ker:
            sub = Subspace.from_vectors(L.dim, ker)
            components[lam] = sub
            total += sub.dim
    if total != L.dim:
        raise InvalidGradingElement(
            "ad(h) is not diagonalizable with integer eigenvalues"
        )
    return Grading(degree=None, components=components)


def contact_grading(L: LieAlgebraTable, rs) -> Grading:
    """The 5-grading of a simple algebra by the coroot of the highest root.

    Basis layout must be the chevalley_table layout for rs.  The extreme
    components are 1-dimensional; InvalidGradingElement is raised otherwise.
    """
    cor = rs.coroot_coords(rs.highest_root)
    h: Vec = {i: c for i, c in enumerate(cor) if c}
    g = grade_by_element(L, h)
    degs = g.degrees()
    if not set(degs) <= {-2, -1, 0, 1, 2}:
        raise InvalidGradingElement(f"contact grading degrees {degs} out of range")
    if not all(d in g.components and g.components[d].dim == 1 for d in (2, -2)):
        raise InvalidGradingElement("extreme contact components must be lines")
    return g


def line_stabilizer(L: LieAlgebraTable, v: Vec, action: Callable[[Vec, Vec], Vec],
                    module_dim: int) -> Subspace:
    """{x in L : action(x, v) in span(v)} as a canonical subspace.

    Solved as a kernel: unknowns are the coefficients of x plus one scalar t
    with action(x, v) = t*v.
    """
    cols = []
    for i in range(L.dim):
        cols.append(action({i: 1}, v))
    rows = []
    for m in range(module_dim):
        row: Vec = {}
        for i, c in enumerate(cols):
            if m in c:
                row[i] = c[m]
        if m in v and v[m]:
            row[L.dim] = -v[m]
        if row:
            rows.append(row)
    ker = SparseRationalMatrix.from_rows(rows, L.dim + 1).kernel()
    vecs = []
    for k in ker:
        x = {i: c for i, c in k.items() if i < L.dim}
        if x:
            vecs.append(x)
    return Subspace.from_vectors(L.dim, vecs)
