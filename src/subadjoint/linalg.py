"""Exact rational linear algebra: three elimination engines.

Vectors are sparse dicts {index: value} with no explicit zeros, values
exact rationals, `int` when integral (a `Fraction` otherwise).

- RrefBasis, an incremental reduced-row-echelon accumulator over the
  rationals, is the workhorse: every rank and kernel of the verifier
  comes from it.  It is also the one subspace type: `span` builds it,
  and equal spaces compare equal by their unique reduced rows.
- `bareiss`, one fraction-free Gauss-Jordan elimination on dense integer
  rows, gives every determinant (`SparseRationalMatrix.det`) and every
  dense inverse (`integer_inverse`: the Cartan inverses of s and of l).
  It shares no code with RrefBasis.
- ModpDenseRref is the RrefBasis accumulator over a prime field (float64
  rows reduced through BLAS).  No check uses it: it and rows_to_modp_array
  stay only because perfbench/tracer.py wraps them, until benchmark v2
  retires the mod-p path.  A mod-p rank is always a lower bound on the
  exact rank.  numpy is imported only by these two, so importing the
  package does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

Vec = dict  # {int: int | Fraction}

# Mod-p rows live in float64 so reductions run through BLAS matmuls.  With
# p < 2**20 and the inner dimension chunked at 4096, every intermediate is an
# integer below 4096 * (2**20)**2 = 2**52 < 2**53, hence exactly represented.
MODP_BITS = 20
_MODP_HI = 1 << MODP_BITS
_MATMUL_BLOCK = 4096


def vec_add_scaled(dst: Vec, src: Vec, c) -> None:
    """dst += c * src, dropping entries that cancel to zero."""
    if not c:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def vec_scale(v: Vec, c) -> Vec:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


class RrefBasis:
    """Incremental reduced row echelon basis over the rationals.

    Rows are kept fully reduced: every pivot column appears in exactly one
    stored row, with value 1.  A row whose pivot entry is +-1 keeps its
    values as they come (`int` rows stay `int`); any other pivot divides
    the row through as `Fraction`s.  `holders` maps each non-pivot column
    to the pivots of the stored rows with a nonzero entry there, so adding
    a row costs one pass over the stored rows its support meets, plus one
    over the rows that hold its new pivot column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, Vec] = {}  # pivot column -> row
        self.holders: dict[int, set[int]] = {}  # column -> pivots holding it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Vec) -> Vec:
        """row minus its components along the stored rows.

        A stored row meets no other pivot column, so each pivot column of
        row is cleared once, in any order.
        """
        out = {k: v for k, v in row.items() if v}
        rows = self.rows
        for c in [c for c in out if c in rows]:
            coef = out[c]
            for k, v in rows[c].items():
                w = out.get(k, 0) - coef * v
                if w:
                    out[k] = w
                else:
                    del out[k]
        return out

    def add(self, row: Vec) -> bool:
        """Insert a row; return True if it enlarged the row space."""
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        p = red[lead]
        if p == -1:
            red = {k: -v for k, v in red.items()}
        elif p != 1:
            inv = 1 / Fraction(p)
            red = {k: v * inv for k, v in red.items()}
        rows, holders = self.rows, self.holders
        tail = [(k, v) for k, v in red.items() if k != lead]
        for k, _ in tail:
            holders.setdefault(k, set()).add(lead)
        for piv in holders.pop(lead, ()):
            prow = rows[piv]
            coef = prow.pop(lead)
            for k, v in tail:
                old = prow.get(k)
                if old is None:
                    prow[k] = -coef * v
                    holders[k].add(piv)
                    continue
                w = old - coef * v
                if w:
                    prow[k] = w
                else:
                    del prow[k]
                    holders[k].discard(piv)
        rows[lead] = red
        return True

    def contains(self, row: Vec) -> bool:
        return not self.reduce(row)

    def __eq__(self, other) -> bool:
        """Same row space.  A space has exactly one fully reduced echelon
        basis, so two bases span the same space exactly when their rows
        agree (an `int` entry equals the `Fraction` of its value)."""
        if not isinstance(other, RrefBasis):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def kernel_basis(self) -> list[Vec]:
        """Basis of {x : Rx = 0} when rows are read as linear functionals:
        one vector per free column f, with 1 at f."""
        out = []
        for f in range(self.ncols):
            if f in self.rows:
                continue
            v: Vec = {f: 1}
            for piv in self.holders.get(f, ()):
                v[piv] = -self.rows[piv][f]
            out.append(v)
        return out

    def kernel_dim(self) -> int:
        return self.ncols - len(self.rows)


def span(ncols: int, vecs: Iterable[Vec]) -> RrefBasis:
    """The reduced echelon basis of the span of vecs in Q^ncols."""
    acc = RrefBasis(ncols)
    for v in vecs:
        acc.add(v)
    return acc


class ModpDenseRref:
    """Reduced row echelon accumulator over F_p, float64 rows, BLAS reduction.

    Batched: incoming rows lose their components along existing pivots in
    one chunked matrix product, get echelonized among themselves, and the
    stored basis is back-reduced with a second product.  All arithmetic is
    exact (see module comment on the 2**53 bound).
    """

    def __init__(self, ncols: int, p: int):
        import numpy as np
        if p >= _MODP_HI:
            raise ValueError("prime too large for the float64 fast path")
        self.ncols = ncols
        self.p = p
        self._cap = 256
        self.R = np.zeros((self._cap, ncols), dtype=np.float64)
        self.nrows = 0
        self.piv_cols: list[int] = []

    @property
    def rank(self) -> int:
        return self.nrows

    def _grow(self, extra: int) -> None:
        import numpy as np
        need = self.nrows + extra
        if need <= self._cap:
            return
        newcap = max(need, min(2 * self._cap, self.ncols))
        newcap = max(newcap, need)
        R = np.zeros((newcap, self.ncols), dtype=np.float64)
        R[: self.nrows] = self.R[: self.nrows]
        self.R = R
        self._cap = newcap

    def _reduce_block(self, B: np.ndarray) -> np.ndarray:
        import numpy as np
        p = self.p
        B = np.mod(B, p)
        if not self.nrows:
            return B
        piv = np.array(self.piv_cols, dtype=np.intp)
        R = self.R[: self.nrows]
        coeff = B[:, piv]
        acc = np.zeros_like(B)
        for lo in range(0, self.nrows, _MATMUL_BLOCK):
            hi = min(lo + _MATMUL_BLOCK, self.nrows)
            acc = np.mod(acc + coeff[:, lo:hi] @ R[lo:hi], p)
        return np.mod(B - acc, p)

    def add_batch(self, B: np.ndarray) -> None:
        """Absorb a (b, ncols) block of rows (any integer dtype or float64)."""
        import numpy as np
        p = self.p
        B = self._reduce_block(np.asarray(B, dtype=np.float64).copy())
        nb = B.shape[0]
        new: list[tuple[int, int]] = []  # (batch row, pivot col)
        for i in range(nb):
            row = B[i]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            inv = pow(int(row[c]), p - 2, p)
            row = np.mod(row * inv, p)
            B[i] = row
            if i + 1 < nb:
                col = B[i + 1 :, c]
                mask = np.nonzero(col)[0]
                if mask.size:
                    B[i + 1 + mask] = np.mod(
                        B[i + 1 + mask] - np.outer(col[mask], row), p
                    )
            new.append((i, c))
        if not new:
            return
        # reduce earlier new rows against later new pivots
        for j in range(len(new) - 1, 0, -1):
            i, c = new[j]
            earlier = np.array([t[0] for t in new[:j]], dtype=np.intp)
            col = B[earlier, c]
            mask = np.nonzero(col)[0]
            if mask.size:
                B[earlier[mask]] = np.mod(
                    B[earlier[mask]] - np.outer(col[mask], B[i]), p
                )
        newrows = B[[t[0] for t in new]]
        newcols = [t[1] for t in new]
        if self.nrows:
            # one product clears the new pivot columns from the old basis;
            # inner dimension <= batch size keeps values below 2**53
            R = self.R[: self.nrows]
            coeff = R[:, newcols]
            if np.any(coeff):
                R[:] = np.mod(R - coeff @ newrows, p)
        self._grow(len(new))
        self.R[self.nrows : self.nrows + len(new)] = newrows
        self.nrows += len(new)
        self.piv_cols.extend(newcols)


def rows_to_modp_array(rows: list[Vec], ncols: int, p: int) -> np.ndarray:
    """Dense float64 reduction of sparse rational rows modulo p."""
    import numpy as np
    B = np.zeros((len(rows), ncols), dtype=np.float64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            num = v.numerator % p
            den = v.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by p")
            B[i, j] = num * pow(den, p - 2, p) % p
    return B


class SparseRationalMatrix:
    """Row-sparse exact matrix with kernel, rank, det and solve."""

    def __init__(self, nrows: int, ncols: int, rows: list[Vec]):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_rows(cls, rows: Iterable[Vec], ncols: int) -> "SparseRationalMatrix":
        rows = list(rows)
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_dense(cls, dense: list[list]) -> "SparseRationalMatrix":
        rows = []
        for r in dense:
            rows.append({j: v for j, v in enumerate(r) if v})
        return cls(len(dense), len(dense[0]) if dense else 0, rows)

    @classmethod
    def from_columns(cls, columns: list[dict]) -> "SparseRationalMatrix":
        """The matrix of a map given by the images of its basis vectors.

        columns[j] is the image of basis vector j, a sparse dict keyed by
        any sortable row label.  Rows come in label order, zero entries are
        dropped, so the kernel is {x : sum_j x_j columns[j] = 0}.
        """
        byrow: dict = {}
        for j, col in enumerate(columns):
            for label, v in col.items():
                if v:
                    byrow.setdefault(label, {})[j] = v
        return cls.from_rows((byrow[r] for r in sorted(byrow)), len(columns))

    def rank(self) -> int:
        return span(self.ncols, self.rows).rank

    def kernel(self) -> list[Vec]:
        return span(self.ncols, self.rows).kernel_basis()

    def solve(self, b: Vec) -> Vec | None:
        """One exact solution of Mx = b, or None if inconsistent.

        Solved through the kernel of the augmented matrix; free variables
        are set to zero.
        """
        aug = []
        for i, row in enumerate(self.rows):
            r = dict(row)
            if i in b and b[i]:
                r[self.ncols] = -b[i]
            if r:
                aug.append(r)
        ker = SparseRationalMatrix.from_rows(aug, self.ncols + 1).kernel()
        for k in ker:
            t = k.get(self.ncols)
            if t:
                return {i: Fraction(c) / t for i, c in k.items()
                        if i < self.ncols and c}
        return None

    def det(self) -> Fraction:
        """Exact determinant, as a Fraction, by integer Bareiss elimination.

        Each row is scaled by the lcm of its denominators, so `bareiss` runs
        on Python ints; the result is the integer determinant over the
        product of the row scales.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        scale = 1
        a = []
        for row in self.rows:
            m = lcm(*(v.denominator for v in row.values()))
            scale *= m
            a.append([int(row.get(j, 0) * m) for j in range(n)])
        return Fraction(bareiss(a, n), scale)


def bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan elimination on the leading n columns.

    a holds n integer rows of width >= n and is reduced in place, rows
    swapped as pivots require.  Returns det of the leading n x n block m,
    and 0 (leaving a partly reduced) when m is singular.  Otherwise a ends
    as [d I | d m^{-1} B] for a start of [m | B], with d = +-det m the last
    pivot.  By Sylvester's identity every division of the elimination
    (Bareiss, Math. Comp. 22, 1968) is exact; a remainder raises
    ArithmeticError.
    """
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i, ri in enumerate(a):
            if i == k:
                continue
            c = ri[k]
            for j in range(k, len(ri)):
                q, rem = divmod(ri[j] * p - c * rk[j], prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                ri[j] = q
            # left of column k a row is zero but for a diagonal entry prev
            # (rows i < k), whose update is prev * p / prev
            if i < k:
                ri[i] = p
        prev = p
    return sign * prev


def integer_inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(A, d) with m^{-1} = A / d for a nonsingular integer matrix m.

    `bareiss` on [m | I] ends at [d I | A] with d = +-det m, so A is
    +-adj m.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    if not bareiss(a, n):
        raise ValueError("singular matrix")
    return [row[n:] for row in a], a[0][0] if n else 1
