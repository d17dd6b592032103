"""Exact sparse integer matrices and their rank over Q.

Every operator matrix the program builds has integer entries.  The rank is
computed by fraction-free integer elimination (cross-multiply and strip the
row content) with Markowitz-style pivot selection.
"""

from __future__ import annotations

from math import gcd


class SparseRationalMatrix:
    """A sparse matrix with integer entries, ranked over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], int] = {}

    def add(self, i: int, j: int, value: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        total = self.entries.get((i, j), 0) + value
        if total:
            self.entries[(i, j)] = total
        else:
            self.entries.pop((i, j), None)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = SparseRationalMatrix(self.rows, other.cols)
        acc: dict[tuple[int, int], int] = {}
        for (i, j), v in self.entries.items():
            for jj, w in by_row.get(j, ()):
                key = (i, jj)
                acc[key] = acc.get(key, 0) + v * w
        for key, v in acc.items():
            if v:
                out.entries[key] = v
        return out


def exact_rank(m: SparseRationalMatrix) -> int:
    """Rank over Q by fraction-free integer elimination, Markowitz pivoting."""
    by_row: dict[int, dict[int, int]] = {}
    for (i, j), v in m.entries.items():
        by_row.setdefault(i, {})[j] = v
    rows = []
    for i in sorted(by_row):
        content = gcd(*by_row[i].values())
        rows.append({j: v // content for j, v in by_row[i].items()})
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
            content = gcd(*combined.values())
            if content:
                new_rows.append(
                    {j: v // content for j, v in combined.items() if v}
                )
        rows = new_rows
    return rank
