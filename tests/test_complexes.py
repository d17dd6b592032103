"""Graded differentials and exact cohomology dimensions."""

import hashlib
import re
from fractions import Fraction

import pytest

from graphcomplex import (
    build_basis,
    cohomology_dims,
    differential_matrix,
    grade_range,
    verify_theorem1,
)
from graphcomplex.complexes import VARIANTS, ComplexError, matrix_of
from graphcomplex.generate import Basis, graded_classes
from graphcomplex.graphs import GraphError


def test_grade_range():
    assert list(grade_range(3)) == [2, 3, 4]
    assert list(grade_range(6)) == list(range(2, 11))


def test_differential_of_k4_vanishes():
    src = build_basis(3, 4)
    tgt = build_basis(3, 3)
    m = differential_matrix(src, tgt)
    assert (m.rows, m.cols) == (0, 1)
    assert m.is_zero()


def test_differential_shape_checks():
    with pytest.raises(GraphError):
        differential_matrix(build_basis(3, 4), build_basis(3, 2))
    with pytest.raises(GraphError):
        differential_matrix(build_basis(5, 6), build_basis(6, 5))
    with pytest.raises(GraphError):
        differential_matrix(build_basis(5, 6, "full"), build_basis(5, 5, "biconnected"))


def test_differential_entries_are_signs_or_small_sums():
    src = build_basis(5, 7)
    tgt = build_basis(5, 6)
    m = differential_matrix(src, tgt)
    # column support: at most one image per edge of the source graph
    for (_, col), v in m.entries.items():
        assert type(v) is int
        assert abs(v) <= src.loop_order + src.vertex_count - 1
    assert m.entries


def test_matrix_of_rejects_a_fractional_coefficient():
    basis = build_basis(5, 7)
    key = basis.keys[-1]

    def image(k):
        return [(key, Fraction(1, 2))] if k == key else []

    with pytest.raises(ComplexError, match=re.escape(repr(key))):
        matrix_of(image, basis, basis)
    # an integral Fraction enters as an int
    m = matrix_of(lambda k: [(k, Fraction(-2))], basis, basis)
    assert set(map(type, m.entries.values())) == {int}


def test_differential_matrix_names_a_class_without_a_column():
    """The columns are read from `graded_classes`; a source class it holds
    no column for, here an orientation-zero class, raises ComplexError."""
    classes = graded_classes(5)[7]
    key = min(classes.zero)
    source = Basis(5, 7, "full", (key,), {key: 0})
    with pytest.raises(ComplexError, match=re.escape(repr(key))):
        differential_matrix(source, build_basis(5, 6))


@pytest.mark.parametrize("g,expected", [(3, {0: 1}), (4, {}), (5, {0: 1})])
def test_cohomology_small_loop_orders(g, expected):
    rep = cohomology_dims(g, "full")
    assert rep.dims_by_degree() == expected


def test_cohomology_vanishing_window():
    for g in (3, 4, 5):
        for variant in VARIANTS:
            table = cohomology_dims(g, variant).dims_by_degree()
            for k, dim in table.items():
                assert dim > 0
                assert 0 <= k <= g - 3


def test_theorem1_small():
    for g in (3, 4, 5):
        rep = verify_theorem1(g)
        assert rep.passed
        tables = [r.dims_by_degree() for r in rep.reports.values()]
        assert tables[0] == tables[1] == tables[2]


def test_rank_nullity_consistency():
    rep = cohomology_dims(5, "full")
    for row in rep.rows:
        assert row.dim_h == row.dim_basis - row.rank_out - row.rank_in
        assert row.dim_h >= 0
        # degree readouts: k edges = g + r - 1
        k_edges = 5 + row.vertex_count - 1
        assert row.degree_n0 == -k_edges
        assert row.degree_n2 == k_edges - 2 * (row.vertex_count - 1)


def test_cohomology_rows_digest():
    """Byte-identity guard over every row of every variant at loop orders
    3-6.  The digest was computed at commit 4bdc767, where each grade was
    generated by its own search."""
    rows = []
    for g in range(3, 7):
        for variant in VARIANTS:
            rep = cohomology_dims(g, variant)
            rows.append(repr((g, variant, rep.rows, sorted(rep.table_n2.items()))))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "df07fe233f6bbef67dbb4437bac8ad21d179098bbc4927fe0e53f25d194a56dc"
    )
