"""Isomorph-free generation against the exhaustive labeled oracle."""

import hashlib
import random

import pytest

from graphcomplex import build_basis, build_graph, canonical_form, graph6_decode
from graphcomplex.complexes import VARIANTS
from graphcomplex.generate import (
    ClassKeys,
    _canonical_deletion_ok,
    _contraction_classes,
    _has_least_degree_pair,
    generate,
    grade_range,
    graded_bases,
    graded_classes,
)
from graphcomplex.sampling import nontri_pool

from conftest import k4, k33, oracle_generate, prism


@pytest.mark.parametrize("r", range(1, 7))
def test_generate_matches_oracle_all_feasible_counts(r):
    top = r * (r - 1) // 2
    for k in range(0, top + 1):
        assert generate(r, k) == oracle_generate(r, k), (r, k)


def test_known_small_sets():
    assert generate(4, 6) == frozenset({canonical_form(k4()).canon_key})
    cubic6 = generate(6, 9)
    assert cubic6 == frozenset(
        {canonical_form(k33()).canon_key, canonical_form(prism()).canon_key}
    )
    assert generate(5, 10) == frozenset(
        {canonical_form(graph6_decode(b"D~{")).canon_key}
    )


def test_connected_cubic_counts():
    # OEIS A002851: connected cubic graphs on 4, 6, 8 and 10 vertices
    assert [len(generate(r, 3 * r // 2)) for r in (4, 6, 8, 10)] == [1, 2, 5, 19]


def test_degree_prefilter_keeps_the_canonical_deletion_edge():
    """The generator drops a child before canonizing it when the new edge
    lacks the least endpoint-degree pair; the edge the canonical deletion
    rule accepts must always pass that test."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 9)
        p = rng.uniform(0.2, 0.9)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        if not g.edges:
            continue
        cf = canonical_form(g)
        accepted = [e for e in g.edges if _canonical_deletion_ok(g, cf, e)]
        assert accepted
        for u, v in g.edges:
            parent = build_graph(n, [e for e in g.edges if e != (u, v)])
            passes = _has_least_degree_pair(parent.degrees(), parent.edges, u, v)
            if (u, v) in accepted:
                assert passes, (g, (u, v))


def test_generate_output_properties():
    for key in generate(7, 11):
        g = graph6_decode(key)
        assert g.n == 7 and g.k == 11
        assert min(g.degrees()) >= 3
        assert canonical_form(g).canon_key == key


def test_build_basis_filters_zero_and_connectivity():
    # loop order 3: only K4 at r = 4, nothing elsewhere
    for variant in ("full", "biconnected", "triconnected"):
        b = build_basis(3, 4, variant)
        assert list(b.keys) == [canonical_form(k4()).canon_key]
        assert b.index[b.keys[0]] == 0
    # loop order 4: every graded basis is empty (all classes are zero);
    # in particular K3,3 and the prism appear in generate(6, 9) but are
    # filtered out of the (g=4, r=6) basis as zero classes
    assert canonical_form(k33()).canon_key in generate(6, 9)
    assert canonical_form(prism()).canon_key in generate(6, 9)
    for r in range(2, 7):
        assert len(build_basis(4, r)) == 0


def test_basis_sorted_and_deterministic():
    b1 = build_basis(5, 7, "full")
    b2 = build_basis(5, 7, "full")
    assert b1.keys == b2.keys == tuple(sorted(b1.keys))
    assert len(build_basis(5, 7, "biconnected")) <= len(b1)
    assert len(build_basis(5, 7, "triconnected")) <= len(
        build_basis(5, 7, "biconnected")
    )


def test_build_basis_rejects_unknown_variant():
    with pytest.raises(ValueError):
        build_basis(3, 4, "nonsense")


def test_generate_submodule_is_not_shadowed():
    import types

    import graphcomplex
    import graphcomplex.generate as module

    assert isinstance(module, types.ModuleType)
    assert graphcomplex.generate is module
    assert module.generate(4, 6) == generate(4, 6)


@pytest.mark.parametrize("g", range(2, 7))
def test_graded_classes_equal_direct_generation(g):
    graded = graded_classes(g)
    assert list(graded) == list(grade_range(g))
    for r, classes in graded.items():
        direct = generate(r, g + r - 1)
        assert classes == direct, (g, r)
        # zero flags as generation and the contraction pass found them,
        # against a fresh canonization of each key
        fresh = {k for k in classes if canonical_form(graph6_decode(k)).is_zero}
        assert classes.zero == direct.zero == fresh, (g, r)


def test_contraction_closure_needs_the_zero_classes():
    """Contracting only the non-zero classes of the grade above loses
    classes: at loop order 5, some 6- and 7-vertex classes are
    contractions of orientation-zero classes only."""
    graded = graded_classes(5)
    for r in (6, 7):
        above = graded[r + 1]
        assert _contraction_classes(ClassKeys(above - above.zero)) < graded[r], r


@pytest.mark.parametrize("g", range(3, 7))
def test_graded_bases_equal_build_basis(g):
    for variant in VARIANTS:
        bases = graded_bases(g, variant)
        assert bases == {r: build_basis(g, r, variant) for r in grade_range(g)}


def test_nontri_pool_keys_unchanged():
    """Digest of the sorted pool as direct per-grade generation gave it
    (commit 4bdc767)."""
    pool = nontri_pool(6)
    assert len(pool) == 26
    assert hashlib.sha256(b"\n".join(pool)).hexdigest() == (
        "5b198a8fbf7e5592c4140979091070b2e2caa479f3aa5d241ecb675a78a5d86c"
    )
