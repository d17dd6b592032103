"""FormalSum bookkeeping: signs, zero classes, linear arithmetic."""

from fractions import Fraction

import pytest

from graphcomplex import FormalSum, build_graph, canonical_form, singleton

from conftest import k4, relabeled, wheel


def test_add_graph_normalizes_to_canonical_key():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    x = FormalSum()
    x.add_graph(g, 1)
    ((key, coeff),) = list(x)
    assert key == canonical_form(g).canon_key
    assert coeff == canonical_form(g).sign_to_canon


def test_relabelings_accumulate_with_signs():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    h = relabeled(g, (2, 1, 0, 3))  # odd or even: signs must reconcile
    x = FormalSum()
    x.add_graph(g, 1)
    sign = canonical_form(g).sign_to_canon * canonical_form(h).sign_to_canon
    x.add_graph(h, -sign)
    assert x.is_zero()


def test_zero_classes_are_dropped():
    x = FormalSum()
    x.add_graph(wheel(4), 5)  # zero class
    assert x.is_zero() and len(x) == 0


def test_linear_arithmetic():
    a = singleton(k4(), Fraction(1, 2))
    b = singleton(k4(), Fraction(1, 3))
    c = a + b
    key = canonical_form(k4()).canon_key
    assert c.coefficient(key) == Fraction(5, 6)
    assert (c - c).is_zero()
    assert c.scaled(6).coefficient(key) == 5
    d = a.scaled(-1)
    assert (a + d).is_zero()
    assert a == singleton(k4(), Fraction(1, 2))


def test_coefficients_are_stored_as_fractions():
    x = FormalSum()
    x.add_term(b"a", 2)
    x.add_term(b"b", Fraction(1, 3))
    x.add_term(b"b", Fraction(2, 3))
    x.add_term(b"c", 0)
    assert x.terms == {b"a": 2, b"b": 1}
    assert all(type(c) is Fraction for c in x.terms.values())
    x.add_term(b"b", -1)
    assert x.terms == {b"a": 2}
    x.add_graph(k4(), 3)
    assert type(x.coefficient(canonical_form(k4()).canon_key)) is Fraction


def test_colored_terms_are_distinct():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    x = FormalSum()
    x.add_graph(g, 1, colors=(1, 0, 0, 0))
    x.add_graph(g, 1, colors=(0, 0, 1, 0))  # same orbit: same colored class
    assert len(x) == 1
    # adjacent marked corners: the color-preserving reflection swaps the
    # two unmarked-side edges with odd sign, so the colored class is zero
    y = FormalSum()
    y.add_graph(g, 1, colors=(1, 1, 0, 0))
    assert y.is_zero()
    # opposite marked corners: all color-preserving automorphisms are even
    z = FormalSum()
    z.add_graph(g, 1, colors=(1, 0, 1, 0))
    assert len(z) == 1
    for colors in ((0, 0), (0,) * 5):
        with pytest.raises(ValueError):
            z.add_graph(g, 1, colors=colors)
