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
from graphcomplex.generate import Basis, graded_bases, graded_classes
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


def _variant_digest(g, variant):
    """SHA-256 over the basis keys of every grade of one variant and the
    sorted entries of its differential matrices."""
    bases = graded_bases(g, variant)
    lines = [repr((r, basis.keys)) for r, basis in bases.items()]
    for r in list(bases)[1:]:
        m = differential_matrix(bases[r], bases[r - 1])
        lines.append(repr((r, m.rows, m.cols, sorted(m.entries.items()))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_loop_order_seven_bases_and_matrices_digest():
    """Byte-identity guard over the bases and differential matrices of all
    three variants at loop order 7.  The digests were computed at commit
    674de05, where each quotient basis classified its keys afresh and the
    closure walked each class as its decoded canonical graph."""
    assert {v: _variant_digest(7, v) for v in VARIANTS} == {
        "full": "9b791ea8a857163c0b5db1ccf464f29b0aeccbe6c7394e6ed45752d5f9b587c5",
        "biconnected": "cc73fb85de9fb94df87ffaff968a93776a6f5d9d373924f68fcab564705d5074",
        "triconnected": "5f1176985056487315db6845b947790bbf1af63fd89c35f8dcd88c23c3d85610",
    }
