"""Exact rational sparse linear algebra, plus a mod-p rank kernel.

Vectors are sparse dicts {index: value} with no explicit zeros, values
exact rationals, `int` when integral (a `Fraction` otherwise).  The
workhorse is RrefBasis, an incremental reduced-row-echelon accumulator over
the rationals; every verdict of the verifier comes from it.  ModpDenseRref
is the same accumulator over a prime field (float64 rows reduced through
BLAS).  No check uses it: it remains for rank cross-checks and for the
benchmark's solve tracing.  A mod-p rank is always a lower bound on the
exact rank.  numpy is imported only by the mod-p helpers (ModpDenseRref,
rows_to_modp_array), so importing the package does not load it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Iterable

Vec = dict  # {int: int | Fraction}

# Mod-p rows live in float64 so reductions run through BLAS matmuls.  With
# p < 2**20 and the inner dimension chunked at 4096, every intermediate is an
# integer below 4096 * (2**20)**2 = 2**52 < 2**53, hence exactly represented.
MODP_BITS = 20
_MODP_LO = 1 << (MODP_BITS - 1)
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

    def kernel_dim(self) -> int:
        return self.ncols - self.nrows

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

    def kernel_basis(self) -> np.ndarray:
        import numpy as np
        free = [c for c in range(self.ncols) if c not in set(self.piv_cols)]
        K = np.zeros((len(free), self.ncols), dtype=np.int64)
        for i, f in enumerate(free):
            K[i, f] = 1
            for j, pc in enumerate(self.piv_cols):
                v = int(self.R[j, f])
                if v:
                    K[i, pc] = (-v) % self.p
        return K


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def modp_primes(seed: int, count: int = 2) -> list[int]:
    """Deterministic pseudorandom primes just under 2**25."""
    rng = random.Random(f"subadjoint-primes-{seed}")
    out: list[int] = []
    while len(out) < count:
        cand = rng.randrange(_MODP_LO, _MODP_HI) | 1
        if cand not in out and _is_probable_prime(cand):
            out.append(cand)
    return out


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
    """Row-sparse exact matrix with kernel/rank/det and a mod-p rank."""

    def __init__(self, nrows: int, ncols: int, rows: list[Vec] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[Vec] = rows if rows is not None else [dict() for _ in range(nrows)]
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

    def rank(self) -> int:
        acc = RrefBasis(self.ncols)
        for row in self.rows:
            acc.add(row)
        return acc.rank

    def kernel(self) -> list[Vec]:
        acc = RrefBasis(self.ncols)
        for row in self.rows:
            acc.add(row)
        return acc.kernel_basis()

    def rank_modp(self, p: int, batch: int = 512) -> int:
        acc = ModpDenseRref(self.ncols, p)
        for lo in range(0, len(self.rows), batch):
            chunk = self.rows[lo : lo + batch]
            acc.add_batch(rows_to_modp_array(chunk, self.ncols, p))
        return acc.rank

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

        Each row is scaled by the lcm of its denominators, so the
        elimination runs on Python ints.  By Sylvester's identity every
        division of the fraction-free elimination (Bareiss, Math. Comp. 22,
        1968) is exact; a remainder raises ArithmeticError.  The result is
        the integer determinant over the product of the row scales.
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
        sign, prev = 1, 1
        for k in range(n - 1):
            if not a[k][k]:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            rk = a[k]
            piv = rk[k]
            for ri in a[k + 1:]:
                c = ri[k]
                for j in range(k + 1, n):
                    q, rem = divmod(ri[j] * piv - c * rk[j], prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss division")
                    ri[j] = q
                ri[k] = 0
            prev = piv
        return Fraction(sign * a[n - 1][n - 1] if n else 1, scale)


def mat_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Dense exact inverse; raises on singular input."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def mat_vec(m: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    return [sum((r[j] * v[j] for j in range(len(v))), Fraction(0)) for r in m]

