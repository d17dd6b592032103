"""Exact sparse matrices over Q and rank computation.

The rank is computed by fraction-free integer elimination (cross-multiply
and strip the row content) with Markowitz-style pivot selection.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class SparseRationalMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}

    def set(self, i: int, j: int, value: Fraction | int) -> None:
        value = Fraction(value)
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if value:
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    def add(self, i: int, j: int, value: Fraction | int) -> None:
        self.set(i, j, self.entries.get((i, j), Fraction(0)) + Fraction(value))

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = SparseRationalMatrix(self.rows, other.cols)
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in self.entries.items():
            for jj, w in by_row.get(j, ()):
                key = (i, jj)
                acc[key] = acc.get(key, Fraction(0)) + v * w
        for key, v in acc.items():
            if v:
                out.entries[key] = v
        return out

    def transpose(self) -> "SparseRationalMatrix":
        out = SparseRationalMatrix(self.cols, self.rows)
        for (i, j), v in self.entries.items():
            out.entries[(j, i)] = v
        return out

    def integer_rows(self) -> list[dict[int, int]]:
        """Rows scaled to integers with content removed (rank-preserving)."""
        rows: list[dict[int, int]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        out = []
        for row in rows:
            if not row:
                out.append({})
                continue
            denom = 1
            for v in row.values():
                denom = denom * v.denominator // gcd(denom, v.denominator)
            ints = {j: int(v * denom) for j, v in row.items()}
            content = 0
            for v in ints.values():
                content = gcd(content, abs(v))
            if content > 1:
                ints = {j: v // content for j, v in ints.items()}
            out.append(ints)
        return out


def exact_rank(m: SparseRationalMatrix) -> int:
    """Rank over Q by fraction-free integer elimination, Markowitz pivoting."""
    rows = [r for r in m.integer_rows() if r]
    rank = 0
    while rows:
        col_count: dict[int, int] = {}
        for row in rows:
            for j in row:
                col_count[j] = col_count.get(j, 0) + 1
        # Markowitz: minimize fill estimate (nnz(row)-1)*(nnz(col)-1)
        best = None
        for ri, row in enumerate(rows):
            r_fill = len(row) - 1
            for j, v in row.items():
                score = r_fill * (col_count[j] - 1)
                key = (score, abs(v).bit_length(), ri, j)
                if best is None or key < best[0]:
                    best = (key, ri, j)
        _, pri, pj = best
        pivot_row = rows.pop(pri)
        pivot_val = pivot_row[pj]
        rank += 1
        new_rows = []
        for row in rows:
            coef = row.get(pj)
            if coef is None:
                new_rows.append(row)
                continue
            combined: dict[int, int] = {}
            for j, v in row.items():
                if j == pj:
                    continue
                combined[j] = v * pivot_val
            for j, v in pivot_row.items():
                if j == pj:
                    continue
                combined[j] = combined.get(j, 0) - v * coef
            # integer cross-multiplication; content removal bounds growth
            content = 0
            for v in combined.values():
                if v:
                    content = gcd(content, abs(v))
            if content:
                new_rows.append(
                    {j: v // content for j, v in combined.items() if v}
                )
        rows = new_rows
    return rank
