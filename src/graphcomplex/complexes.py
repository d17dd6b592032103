"""Graded differentials, exact cohomology dimensions, and table emitters.

The chain complex computed here is the edge-contraction complex: the
differential of a graph is the signed sum of its simple edge contractions,
sign (-1)^(j-1) for contraction of the j-th edge in the orientation order.
Its dual (vertex splitting) has the same graded dimensions, so reports
state dimensions only.  All arithmetic is exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .generate import (
    Basis,
    ClassKeys,
    build_basis,
    grade_range,
    graded_bases,
    graded_classes,
)
from .graphs import GraphError
from .matrixops import SparseRationalMatrix, exact_rank

VARIANTS = ("full", "biconnected", "triconnected")


class ComplexError(RuntimeError):
    """Internal consistency failure (d^2 != 0 or a basis gap)."""


def matrix_of(image, source: Basis, target: Basis) -> SparseRationalMatrix:
    """Matrix of a linear operator from `source` into `target`, one column
    per source class; ``image(key)`` gives the operator's value on one class
    as (class key, coefficient) pairs.  A term absent from the target basis
    is dropped when the target is a quotient variant (it lies below the
    connectivity threshold) and raises ComplexError when it is full.  Every
    coefficient must be an integer; a fractional one raises ComplexError."""
    m = SparseRationalMatrix(len(target), len(source))
    for col, key in enumerate(source.keys):
        for ikey, coeff in image(key):
            row = target.index.get(ikey)
            if row is None:
                if target.variant == "full":
                    raise ComplexError(f"image {ikey!r} missing from full basis")
                continue
            if coeff.denominator != 1:
                raise ComplexError(f"non-integral coefficient {coeff} of image {ikey!r}")
            m.add(row, col, int(coeff))
    return m


def differential_matrix(
    source: Basis, target: Basis
) -> SparseRationalMatrix:
    """Matrix of the edge-contraction differential, one column per source
    class.  Non-simple contractions, orientation-zero images, and images
    absent from the target basis (quotient variants) are dropped.

    The columns are the ones `graded_classes(source.loop_order)` recorded
    for the source grade; a basis from `build_basis` has the same keys, so
    it reads the same columns.  A source class without a recorded column
    raises ComplexError.  ``operators.apply_d`` computes the same images
    afresh."""
    if source.loop_order != target.loop_order:
        raise GraphError("loop order mismatch between bases")
    if source.vertex_count != target.vertex_count + 1:
        raise GraphError("target must have one vertex fewer than source")
    if source.variant != target.variant:
        raise GraphError("variant mismatch between bases")
    columns = graded_classes(source.loop_order).get(source.vertex_count, ClassKeys()).columns

    def column(key: bytes):
        try:
            return columns[key]
        except KeyError:
            raise ComplexError(f"no recorded d column for {key!r}") from None

    return matrix_of(column, source, target)


class GradeRow(NamedTuple):
    vertex_count: int
    degree_n0: int
    degree_n2: int
    dim_basis: int
    rank_out: int
    rank_in: int
    dim_h: int


class CohomologyReport(NamedTuple):
    loop_order: int
    variant: str
    rows: tuple[GradeRow, ...]
    # n=2 reading: degree k at vertex grade r is k = r - g - 1
    table_n2: dict[int, int]

    def dims_by_degree(self) -> dict[int, int]:
        return dict(self.table_n2)


def cohomology_dims(g: int, variant: str = "full") -> CohomologyReport:
    """Exact cohomology dimensions of the loop-order-g piece.

    Builds all graded bases, all differentials, verifies d^2 = 0 as exact
    matrix products, and reports rank-nullity dimensions with both degree
    readouts (n=0: -k; n=2: k - 2(r-1), reported index k = r - g - 1).
    """
    bases = graded_bases(g, variant)
    rs = list(bases)
    mats: dict[int, SparseRationalMatrix] = {}  # r -> matrix of d: r -> r-1
    for r in rs:
        if r - 1 >= rs[0]:
            mats[r] = differential_matrix(bases[r], bases[r - 1])
    for r in rs:
        if r in mats and r + 1 in mats:
            if not mats[r].matmul(mats[r + 1]).is_zero():
                raise ComplexError(
                    f"d^2 != 0 at loop order {g}, grade {r + 1} -> {r - 1},"
                    f" variant {variant}"
                )
    ranks = {r: exact_rank(m) for r, m in mats.items()}
    rows = []
    table: dict[int, int] = {}
    for r in rs:
        dim = len(bases[r])
        rank_out = ranks.get(r, 0)
        rank_in = ranks.get(r + 1, 0)
        dim_h = dim - rank_out - rank_in
        if dim_h < 0:
            raise ComplexError(f"negative cohomology dimension at r={r}")
        k_edges = g + r - 1
        rows.append(
            GradeRow(
                vertex_count=r,
                degree_n0=-k_edges,
                degree_n2=k_edges - 2 * (r - 1),
                dim_basis=dim,
                rank_out=rank_out,
                rank_in=rank_in,
                dim_h=dim_h,
            )
        )
        if dim_h:
            table[r - g - 1] = dim_h
    return CohomologyReport(
        loop_order=g, variant=variant, rows=tuple(rows), table_n2=table
    )


class Theorem1Report(NamedTuple):
    loop_order: int
    reports: dict[str, CohomologyReport]
    passed: bool


def verify_theorem1(g: int) -> Theorem1Report:
    """PASS iff full, biconnected, and triconnected cohomology dimension
    tables agree in every degree."""
    reports = {v: cohomology_dims(g, v) for v in VARIANTS}
    tables = [rep.dims_by_degree() for rep in reports.values()]
    passed = tables[0] == tables[1] == tables[2]
    return Theorem1Report(loop_order=g, reports=reports, passed=passed)


def table1_rows(max_vertices: int) -> list[tuple[int, int, int, int]]:
    """(vertex count, dim full, dim bi, dim tri) rows of the loop-order-10
    dimension table, for vertex counts 6..max_vertices."""
    rows = []
    for r in range(6, max_vertices + 1):
        dims = tuple(len(build_basis(10, r, v)) for v in VARIANTS)
        rows.append((r, *dims))
    return rows
