import random
from fractions import Fraction
from math import lcm, prod

import pytest

from subadjoint.linalg import (
    ModpDenseRref,
    RrefBasis,
    SparseRationalMatrix,
    integer_inverse,
    rows_to_modp_array,
    span,
)


def _random_rows(rng, n, m, density=0.5, lo=-9, hi=9):
    return [
        {j: Fraction(rng.randint(lo, hi)) for j in range(m)
         if rng.random() < density}
        for _ in range(n)
    ]


def test_rref_basic_rank_and_kernel():
    m = SparseRationalMatrix.from_dense([
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
    ])
    assert m.rank() == 2
    ker = m.kernel()
    assert len(ker) == 1
    # kernel vector annihilates every row
    for row in m.rows:
        s = sum(row.get(j, Fraction(0)) * ker[0].get(j, Fraction(0))
                for j in range(3))
        assert s == 0


def test_rref_tolerates_explicit_zero_entries():
    acc = RrefBasis(3)
    assert acc.add({0: Fraction(0), 1: Fraction(1)})
    assert acc.rank == 1


def test_span_equality():
    # a space has one reduced echelon basis: the order and scaling of the
    # spanning vectors and int or Fraction entries leave it unchanged
    vecs = [{0: 2, 1: 4}, {1: 1, 2: 3}, {0: 1, 1: 3, 2: 3}]
    a = span(4, vecs)
    assert a.rank == 2
    assert a == span(4, reversed(vecs))
    assert a == span(4, [{k: Fraction(-3, 7) * c for k, c in v.items()}
                         for v in vecs])
    assert a == span(4, a.rows.values())
    ints = span(3, [{0: 1, 1: 2}, {1: -1, 2: 5}])
    fracs = span(3, [{0: Fraction(1), 1: Fraction(2)},
                     {1: Fraction(-1), 2: Fraction(5)}])
    assert {type(v) for row in ints.rows.values() for v in row.values()} == {int}
    assert {type(v) for row in fracs.rows.values()
            for v in row.values()} == {Fraction}
    assert ints == fracs
    # unequal spaces, and one space in two ambient dimensions
    assert a != span(4, [{0: 1}, {1: 1}])
    assert a != span(4, vecs[:1])
    assert a != span(5, vecs)
    assert ints != span(3, [{0: 1, 1: 2}, {1: 1, 2: 5}])


def test_kernel_matches_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randint(1, 10), rng.randint(1, 12)
        mat = SparseRationalMatrix.from_rows(_random_rows(rng, n, m), m)
        assert mat.rank() + len(mat.kernel()) == m


def test_from_columns_is_the_transpose():
    # any sortable row labels; zero entries and empty columns contribute
    # no entry, and the kernel is the same whatever the row order
    rng = random.Random(12)
    for _ in range(30):
        n, m = rng.randint(1, 10), rng.randint(1, 12)
        rows = _random_rows(rng, n, m)
        labels = rng.sample([(a, b) for a in range(4) for b in range(4)], n)
        columns = [{lab: row.get(j, 0) for lab, row in zip(labels, rows)}
                   for j in range(m)]
        mat = SparseRationalMatrix.from_columns(columns)
        assert mat.ncols == m
        assert all(v for row in mat.rows for v in row.values())
        by_label = dict(zip(labels, rows))
        ordered = [{k: v for k, v in by_label[lab].items() if v}
                   for lab in sorted(labels)]
        assert [r for r in ordered if r] == mat.rows
        assert mat.kernel() == SparseRationalMatrix.from_rows(rows, m).kernel()


def test_det_matches_rank():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        mat = SparseRationalMatrix.from_rows(_random_rows(rng, n, n, 0.8), n)
        det = mat.det()
        assert (det != 0) == (mat.rank() == n)


def test_det_known_value():
    m = SparseRationalMatrix.from_dense([[2, 1], [1, 1]])
    assert m.det() == 1
    m = SparseRationalMatrix.from_dense([[0, 1], [1, 0]])
    assert m.det() == -1


def _fraction_det(dense):
    """Reference: the Bareiss elimination as it was before integer rows,
    every entry a Fraction."""
    n = len(dense)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(v) for v in row] for row in dense]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _det_matrix(rng, kind, shape, n):
    """n x n dense matrix of `int` or `fraction` entries, a third of them
    zero.  `singular`: the last row combines two others; `swap`: the first
    pivot is zero and a lower row is not, so elimination must swap rows."""
    def entry():
        if rng.random() < 0.33:
            return 0
        if kind == "int":
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    a = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "singular":
        x, y = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
        cx, cy = rng.choice((-2, 1, 3)), rng.choice((-1, 2))
        a[-1] = [cx * u + cy * v for u, v in zip(a[x], a[y])]
    elif shape == "swap":
        a[0][0] = 0
        a[rng.randrange(1, n)][0] = rng.choice((-2, 1, 5))
    return a


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("shape", ["random", "singular", "swap"])
def test_det_matches_fraction_reference(kind, shape):
    rng = random.Random(f"det-{kind}-{shape}")
    for _ in range(40):
        dense = _det_matrix(rng, kind, shape, rng.randint(2, 7))
        det = SparseRationalMatrix.from_dense(dense).det()
        assert type(det) is Fraction
        assert det == _fraction_det(dense)
        if shape == "singular":
            assert det == 0
        # the row-scaled integer twin has det times the product of the scales
        scales = [lcm(*(Fraction(v).denominator for v in row)) for row in dense]
        twin = [[int(v * m) for v in row] for row, m in zip(dense, scales)]
        twin_det = SparseRationalMatrix.from_dense(twin).det()
        assert type(twin_det) is Fraction
        assert twin_det == det * prod(scales)
    assert SparseRationalMatrix.from_dense([]).det() == Fraction(1)


def test_solve():
    m = SparseRationalMatrix.from_dense([[2, 1], [1, 1], [3, 2]])
    x = m.solve({0: Fraction(3), 1: Fraction(2), 2: Fraction(5)})
    assert x == {0: Fraction(1), 1: Fraction(1)}
    assert m.solve({0: Fraction(1)}) is None          # inconsistent
    assert m.solve({}) == {}                          # homogeneous
    rng = random.Random(2)
    for _ in range(20):
        n, k = rng.randint(1, 8), rng.randint(1, 8)
        mat = SparseRationalMatrix.from_rows(_random_rows(rng, n, k), k)
        xs = {j: Fraction(rng.randint(-5, 5)) for j in range(k)}
        b = {}
        for i, row in enumerate(mat.rows):
            v = sum((c * xs.get(j, Fraction(0)) for j, c in row.items()),
                    Fraction(0))
            if v:
                b[i] = v
        sol = mat.solve(b)
        assert sol is not None
        for i, row in enumerate(mat.rows):
            v = sum((c * sol.get(j, Fraction(0)) for j, c in row.items()),
                    Fraction(0))
            assert v == b.get(i, Fraction(0))


def test_mat_inverse_roundtrip():
    assert integer_inverse([[2, -1], [-1, 2]]) == ([[2, 1], [1, 2]], 3)


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


@pytest.mark.parametrize("shape", ["random", "singular", "swap"])
def test_det_and_integer_inverse_share_bareiss(shape):
    # det and integer_inverse run the same elimination, so these checks use
    # no reference implementation: det is multiplicative, and a nonsingular
    # m has m A = d I with d = +-det m
    rng = random.Random(f"bareiss-{shape}")
    for _ in range(40):
        n = rng.randint(2, 7)
        m1 = _det_matrix(rng, "int", shape, n)
        m2 = _det_matrix(rng, "int", rng.choice(("random", "swap")), n)
        det1 = SparseRationalMatrix.from_dense(m1).det()
        det2 = SparseRationalMatrix.from_dense(m2).det()
        assert SparseRationalMatrix.from_dense(_matmul(m1, m2)).det() == det1 * det2
        if shape == "singular":
            assert det1 == 0
        if not det1:
            with pytest.raises(ValueError, match="singular"):
                integer_inverse(m1)
            continue
        inv, d = integer_inverse(m1)
        assert d in (det1, -det1)
        assert all(type(x) is int for row in inv for x in row)
        assert _matmul(m1, inv) == [[d * int(i == j) for j in range(n)]
                                    for i in range(n)]


def test_modp_rank_agrees_with_exact_on_random_input():
    rng = random.Random(3)
    p = 1000003
    for _ in range(40):
        n, m = rng.randint(1, 15), rng.randint(1, 15)
        rows = _random_rows(rng, n, m)
        exact = SparseRationalMatrix.from_rows(rows, m).rank()
        acc = ModpDenseRref(m, p)
        cut = rng.randint(0, n)
        acc.add_batch(rows_to_modp_array(rows[:cut], m, p))
        acc.add_batch(rows_to_modp_array(rows[cut:], m, p))
        assert acc.rank == exact


def test_modp_rank_never_exceeds_exact():
    # a matrix that drops rank mod exactly one prime
    p, other = 1000003, 999983
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(1), 1: Fraction(1 + p)}]
    assert SparseRationalMatrix.from_rows(rows, 2).rank() == 2
    for q, rank in ((p, 1), (other, 2)):
        acc = ModpDenseRref(2, q)
        acc.add_batch(rows_to_modp_array(rows, 2, q))
        assert acc.rank == rank


class _FractionRref:
    """Reference: the elimination as it was before int rows and the holder
    index.  Every value a Fraction, reduction in column order,
    back-elimination over every stored row."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    def reduce(self, row):
        out = {k: Fraction(v) for k, v in row.items() if v}
        for c in sorted(out):
            coef = out.get(c)
            piv = self.rows.get(c)
            if coef and piv is not None:
                for k, v in piv.items():
                    w = out.get(k, Fraction(0)) - coef * v
                    if w:
                        out[k] = w
                    else:
                        out.pop(k, None)
        return out

    def add(self, row):
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        inv = 1 / red[lead]
        red = {k: v * inv for k, v in red.items()}
        for prow in self.rows.values():
            coef = prow.get(lead)
            if coef:
                for k, v in red.items():
                    w = prow.get(k, Fraction(0)) - coef * v
                    if w:
                        prow[k] = w
                    else:
                        prow.pop(k, None)
        self.rows[lead] = red
        return True

    def kernel_basis(self):
        out = []
        for f in range(self.ncols):
            if f not in self.rows:
                v = {f: Fraction(1)}
                for piv, prow in self.rows.items():
                    if prow.get(f):
                        v[piv] = -prow[f]
                out.append(v)
        return out


def _engine_rows(rng, kind, n, m):
    """Sparse rows over m columns with `unit` entries +-1 (pivots mostly
    +-1), `int` entries in -3..3 (non-unit pivots) or `fraction` entries;
    a third of the rows are combinations of earlier ones."""
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.33:
            row = {}
            for src in rng.sample(rows, min(len(rows), 2)):
                c = rng.choice((-2, -1, 1, 3))
                for k, v in src.items():
                    row[k] = row.get(k, 0) + c * v
            rows.append({k: v for k, v in row.items() if v})
            continue
        row = {}
        for j in range(m):
            if rng.random() < 0.3:
                if kind == "unit":
                    v = rng.choice((-1, 1))
                elif kind == "int":
                    v = rng.choice((-3, -2, -1, 1, 2, 3))
                else:
                    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                row[j] = v
        rows.append(row)
    return rows


def _exact_values(vecs):
    return all(type(v) in (int, Fraction) for vec in vecs for v in vec.values())


def _scanned_holders(acc):
    out = {}
    for piv, row in acc.rows.items():
        for k in row:
            if k != piv:
                out.setdefault(k, set()).add(piv)
    return out


@pytest.mark.parametrize("kind", ["unit", "int", "fraction"])
def test_rref_matches_fraction_reference(kind):
    rng = random.Random(f"rref-{kind}")
    for _ in range(40):
        n, m = rng.randint(1, 14), rng.randint(1, 12)
        rows = _engine_rows(rng, kind, n, m)
        acc, ref = RrefBasis(m), _FractionRref(m)
        for row in rows:
            assert acc.add(row) == ref.add(row)
            assert acc.rows == ref.rows
            assert {k: v for k, v in acc.holders.items() if v} \
                == _scanned_holders(acc)
            assert _exact_values(acc.rows.values())
        assert acc.rank == len(ref.rows)
        ker = acc.kernel_basis()
        assert ker == ref.kernel_basis()
        assert _exact_values(ker)
        mat = SparseRationalMatrix.from_rows(rows, m)
        xs = {j: rng.randint(-3, 3) for j in range(m)}
        b = {}
        for i, row in enumerate(rows):
            v = sum(c * xs.get(j, 0) for j, c in row.items())
            if v:
                b[i] = v
        sol = mat.solve(b)
        assert sol is not None and _exact_values([sol])
        for i, row in enumerate(rows):
            assert sum(c * sol.get(j, 0) for j, c in row.items()) \
                == b.get(i, 0)


def test_rref_rows_stay_int_under_unit_pivots():
    acc = RrefBasis(4)
    for row in ({0: 1, 1: 2, 3: -1}, {1: -1, 2: 3}, {2: 1, 3: 1}):
        assert acc.add(row)
    assert acc.rows == {0: {0: 1, 3: -7}, 1: {1: 1, 3: 3}, 2: {2: 1, 3: 1}}
    assert all(type(v) is int for r in acc.rows.values() for v in r.values())
    # a pivot of 2 divides its row through as Fractions
    acc = RrefBasis(2)
    acc.add({0: 2, 1: 1})
    assert acc.rows == {0: {0: 1, 1: Fraction(1, 2)}}
    assert type(acc.rows[0][1]) is Fraction
