import random
from fractions import Fraction

import numpy as np

from subadjoint.linalg import (
    ModpDenseRref,
    RrefBasis,
    SparseRationalMatrix,
    mat_inverse,
    modp_primes,
    rows_to_modp_array,
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


def test_kernel_matches_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randint(1, 10), rng.randint(1, 12)
        mat = SparseRationalMatrix.from_rows(_random_rows(rng, n, m), m)
        assert mat.rank() + len(mat.kernel()) == m


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
    a = [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    inv = mat_inverse(a)
    assert inv == [[Fraction(2, 3), Fraction(1, 3)],
                   [Fraction(1, 3), Fraction(2, 3)]]


def test_modp_primes_deterministic_and_prime():
    p1 = modp_primes(7)
    p2 = modp_primes(7)
    assert p1 == p2 and len(set(p1)) == 2
    for p in p1:
        assert p > 2
        for q in range(2, 200):
            if p % q == 0 and p != q:
                raise AssertionError(f"{p} has small factor {q}")


def test_modp_rank_agrees_with_exact_on_random_input():
    rng = random.Random(3)
    p = modp_primes(0)[0]
    for _ in range(40):
        n, m = rng.randint(1, 15), rng.randint(1, 15)
        rows = _random_rows(rng, n, m)
        exact = SparseRationalMatrix.from_rows(rows, m).rank()
        acc = ModpDenseRref(m, p)
        cut = rng.randint(0, n)
        acc.add_batch(rows_to_modp_array(rows[:cut], m, p))
        acc.add_batch(rows_to_modp_array(rows[cut:], m, p))
        assert acc.rank == exact
        K = acc.kernel_basis()
        if K.size:
            B = rows_to_modp_array(rows, m, p).astype(np.int64)
            assert (B @ K.T % p == 0).all()


def test_modp_rank_never_exceeds_exact():
    # a matrix that drops rank mod exactly one prime
    p = modp_primes(1)[0]
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(1), 1: Fraction(1 + p)}]
    mat = SparseRationalMatrix.from_rows(rows, 2)
    assert mat.rank() == 2
    assert mat.rank_modp(p) == 1
    other = modp_primes(2)[1]
    assert mat.rank_modp(other) == 2

