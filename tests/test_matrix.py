"""Exact sparse rank against a dense rational Gaussian-elimination oracle."""

import random
from fractions import Fraction

from graphcomplex import SparseRationalMatrix, exact_rank


def dense_rank_oracle(m: SparseRationalMatrix) -> int:
    """Plain dense Gaussian elimination over Fraction."""
    a = [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    row = 0
    for col in range(m.cols):
        pivot = next((r for r in range(row, m.rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(m.rows):
            if r != row and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[row])]
        row += 1
        rank += 1
        if row == m.rows:
            break
    return rank


def random_matrix(rng: random.Random) -> SparseRationalMatrix:
    rows = rng.randint(1, 30)
    cols = rng.randint(1, 30)
    m = SparseRationalMatrix(rows, cols)
    density = rng.uniform(0.05, 0.6)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                if rng.random() < 0.3:
                    m.set(i, j, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                else:
                    m.set(i, j, rng.randint(-5, 5))
    return m


def test_rank_against_dense_oracle():
    rng = random.Random(42)
    for _ in range(200):
        m = random_matrix(rng)
        expected = dense_rank_oracle(m)
        assert exact_rank(m) == expected


def test_known_ranks():
    zero = SparseRationalMatrix(5, 5)
    assert exact_rank(zero) == 0 and zero.is_zero()

    eye = SparseRationalMatrix(4, 4)
    for i in range(4):
        eye.set(i, i, 1)
    assert exact_rank(eye) == 4

    outer = SparseRationalMatrix(3, 3)  # rank-1 outer product
    for i in range(3):
        for j in range(3):
            outer.set(i, j, (i + 1) * (j + 2))
    assert exact_rank(outer) == 1

    singular = SparseRationalMatrix(2, 2)
    singular.set(0, 0, Fraction(1, 2))
    singular.set(0, 1, Fraction(1, 3))
    singular.set(1, 0, Fraction(3, 2))
    singular.set(1, 1, 1)
    assert exact_rank(singular) == 1


def test_set_add_get_and_zero_cleanup():
    m = SparseRationalMatrix(2, 2)
    m.set(0, 0, Fraction(1, 3))
    m.add(0, 0, Fraction(-1, 3))
    assert m.nnz() == 0
    assert m.get(0, 0) == 0


def test_matmul_and_transpose():
    rng = random.Random(1)
    a = random_matrix(rng)
    b = SparseRationalMatrix(a.cols, 4)
    for i in range(b.rows):
        for j in range(4):
            if rng.random() < 0.4:
                b.set(i, j, rng.randint(-3, 3))
    prod = a.matmul(b)
    for i in range(min(prod.rows, 6)):
        for j in range(prod.cols):
            expected = sum(a.get(i, t) * b.get(t, j) for t in range(a.cols))
            assert prod.get(i, j) == expected
    t = a.transpose()
    assert exact_rank(t) == exact_rank(a)


def test_rank_large_entries():
    # entries big enough that naive float ranks would be unreliable
    m = SparseRationalMatrix(6, 6)
    rng = random.Random(3)
    for i in range(6):
        for j in range(6):
            m.set(i, j, rng.randint(-10**18, 10**18))
    assert exact_rank(m) == dense_rank_oracle(m)
