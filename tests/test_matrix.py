"""Exact sparse rank against a dense rational Gaussian-elimination oracle."""

import random
from fractions import Fraction

import pytest

from graphcomplex import SparseRationalMatrix, exact_rank
from graphcomplex.complexes import VARIANTS, differential_matrix
from graphcomplex.generate import graded_bases


def dense_rank_oracle(m: SparseRationalMatrix) -> int:
    """Plain dense Gaussian elimination over Fraction."""
    a = [[Fraction(m.entries.get((i, j), 0)) for j in range(m.cols)] for i in range(m.rows)]
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
                    m.add(i, j, rng.randint(-60, 60))
                else:
                    m.add(i, j, rng.randint(-5, 5))
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
        eye.add(i, i, 1)
    assert exact_rank(eye) == 4

    outer = SparseRationalMatrix(3, 3)  # rank-1 outer product
    for i in range(3):
        for j in range(3):
            outer.add(i, j, (i + 1) * (j + 2))
    assert exact_rank(outer) == 1

    singular = SparseRationalMatrix(2, 2)  # rows with content 1 and 3
    singular.add(0, 0, 3)
    singular.add(0, 1, 2)
    singular.add(1, 0, 9)
    singular.add(1, 1, 6)
    assert exact_rank(singular) == 1


def test_add_and_zero_cleanup():
    m = SparseRationalMatrix(2, 2)
    m.add(0, 0, 3)
    m.add(0, 0, -3)
    assert m.nnz() == 0 and m.is_zero()
    m.add(1, 0, 2)
    m.add(1, 0, 5)
    assert m.entries == {(1, 0): 7}
    with pytest.raises(IndexError):
        m.add(2, 0, 1)


def test_matmul_against_dense_product():
    rng = random.Random(1)
    a = random_matrix(rng)
    b = SparseRationalMatrix(a.cols, 4)
    for i in range(b.rows):
        for j in range(4):
            if rng.random() < 0.4:
                b.add(i, j, rng.randint(-3, 3))
    prod = a.matmul(b)
    for i in range(prod.rows):
        for j in range(prod.cols):
            expected = sum(
                a.entries.get((i, t), 0) * b.entries.get((t, j), 0) for t in range(a.cols)
            )
            assert prod.entries.get((i, j), 0) == expected
    assert 0 not in prod.entries.values()


def test_rank_large_entries():
    # entries big enough that naive float ranks would be unreliable
    m = SparseRationalMatrix(6, 6)
    rng = random.Random(3)
    for i in range(6):
        for j in range(6):
            m.add(i, j, rng.randint(-10**18, 10**18))
    assert exact_rank(m) == dense_rank_oracle(m)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rank_against_dense_oracle_on_differentials(variant):
    """Every differential of loop order 3..6, the matrices the cohomology
    tables are ranked from (the largest is 12 x 13)."""
    largest = 0
    for g in range(3, 7):
        bases = graded_bases(g, variant)
        for r in bases:
            if r - 1 in bases:
                m = differential_matrix(bases[r], bases[r - 1])
                assert exact_rank(m) == dense_rank_oracle(m), (g, variant, r)
                largest = max(largest, m.rows * m.cols)
    assert largest >= 80  # not vacuous: 8 x 10 for the triconnected variant
