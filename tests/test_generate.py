"""Isomorph-free generation against the exhaustive labeled oracle."""

import hashlib
import random
from itertools import combinations

import pytest

from graphcomplex import build_basis, build_graph, canonical_form, graph6_decode
from graphcomplex.complexes import VARIANTS
import graphcomplex.generate as generate_module
from graphcomplex.generate import (
    ClassKeys,
    _canonical_deletion_ok,
    _contraction_pass,
    _cubic_classes,
    _has_least_degree_pair,
    _insert_diamond,
    _insert_edge,
    _undoes_a_top_split,
    generate,
    grade_range,
    graded_bases,
    graded_classes,
)
from graphcomplex.graphs import NonSimple, contract_edge
from graphcomplex.operators import _d_image
from graphcomplex.sampling import nontri_pool

from conftest import k4, k33, oracle_generate, prism, random_labeling


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


@pytest.mark.slow
def test_cubic_grade_loop_order_seven_equals_direct_generation():
    cubic = ClassKeys(_cubic_classes(7))
    direct = generate(12, 18)
    assert cubic == direct
    assert cubic.zero == direct.zero


def test_cubic_grade_counts():
    # OEIS A002851: connected cubic graphs on 4, 6, ..., 14 vertices
    assert [len(_cubic_classes(g)) for g in range(3, 9)] == [1, 2, 5, 19, 85, 509]


@pytest.mark.slow
def test_cubic_grade_loop_order_eight_unchanged():
    """Digests of the sorted keys and zero keys of generate(14, 21), the
    search the cubic construction replaced (commit 9cddf8c)."""
    cubic = ClassKeys(_cubic_classes(8))
    assert (len(cubic), len(cubic.zero)) == (509, 295)
    assert hashlib.sha256(b"\n".join(sorted(cubic))).hexdigest() == (
        "cd83be7df4c55e85ffd14c4baae5da011ef1a1dec07f1e0c4984e87b2579a11d"
    )
    assert hashlib.sha256(b"\n".join(sorted(cubic.zero))).hexdigest() == (
        "f681d0070dd31ebfc3f0a27b3578314258eff1a7fd30745d679afacc02841d05"
    )


@pytest.mark.slow
def test_cubic_grade_count_at_sixteen_vertices():
    # OEIS A002851: 4,060 connected cubic graphs on 16 vertices
    cubic = ClassKeys(_cubic_classes(9))
    assert (len(cubic), len(cubic.zero)) == (4060, 1564)


def _cubic(n):
    return [graph6_decode(key) for key in sorted(generate(n, 3 * n // 2))]


def _e_children(n):
    """Classes of E on every edge pair of every cubic class on n vertices."""
    return {
        canonical_form(_insert_edge(g.n, g.edges, i, j)).canon_key
        for g in _cubic(n)
        for i, j in combinations(range(g.k), 2)
    }


def _d_children(n):
    """Classes of D on every edge of every cubic class on n vertices."""
    return {
        canonical_form(_insert_diamond(g, i)).canon_key
        for g in _cubic(n)
        for i in range(g.k)
    }


def test_cubic_construction_needs_the_diamond():
    key = canonical_form(graph6_decode(b"GB]DMG")).canon_key
    assert key in generate(8, 12)
    assert key not in _e_children(6)
    assert key in _d_children(4)


def test_cubic_construction_needs_the_bridge():
    key = canonical_form(graph6_decode(b"IG?W{r_w?")).canon_key
    assert key in generate(10, 15)
    assert key not in _e_children(8)
    assert key not in _d_children(6)


def test_graded_classes_build_the_cubic_grade_without_search(monkeypatch):
    """The top grade comes from the cubic construction, not from
    `generate`; the uncached body runs, so the cache stays as it was."""
    direct = {r: generate(r, 5 + r - 1) for r in grade_range(5)}

    def no_search(r, k):
        raise AssertionError(f"generate({r}, {k}) called")

    monkeypatch.setattr(generate_module, "generate", no_search)
    graded = graded_classes.__wrapped__(5)
    assert graded == direct
    assert all(graded[r].zero == direct[r].zero for r in direct)


def _found(key):
    """A class as its decoded canonical graph and that graph's canonical
    form, the record `_contraction_pass` walks."""
    graph = graph6_decode(key)
    return graph, canonical_form(graph)


def test_contraction_closure_needs_the_zero_classes():
    """Contracting only the non-zero classes of the grade above loses
    classes: at loop order 5, some 6- and 7-vertex classes are
    contractions of orientation-zero classes only."""
    graded = graded_classes(5)
    for r in (6, 7):
        above = graded[r + 1]
        nonzero = {k: _found(k) for k in above - above.zero}
        _, below = _contraction_pass(nonzero)
        assert below.keys() < graded[r], r


def test_graded_classes_loop_order_seven_unchanged():
    """Digests of the sorted keys and zero keys of every grade of loop
    order 7, as the closure that contracted every edge of every class and
    canonized every image gave them (commit 6a0abc7)."""
    graded = graded_classes(7)
    keys = sorted(k for classes in graded.values() for k in classes)
    zero = sorted(k for classes in graded.values() for k in classes.zero)
    assert (len(keys), len(zero)) == (1108, 529)
    assert hashlib.sha256(b"\n".join(keys)).hexdigest() == (
        "7338f3e3345ce625df6090dbe2afeea4aaad88bffca161b3c4002ceef15cd22c"
    )
    assert hashlib.sha256(b"\n".join(zero)).hexdigest() == (
        "f31a2e36df8da6b46417a61652c84e2d2112ad2dc7277a729a028c46d6aa2c78"
    )


@pytest.mark.parametrize("g", range(3, 8))
def test_recorded_columns_equal_the_d_operator(g):
    """Every non-zero class of every grade above the lowest has a recorded
    column, and it is the image that `operators._d_image` computes from
    every edge of the class."""
    graded = graded_classes(g)
    lowest = min(graded)
    count = 0
    for r, classes in graded.items():
        if r == lowest:
            assert not classes.columns
            continue
        assert classes.columns.keys() == classes - classes.zero, (g, r)
        for key, column in classes.columns.items():
            assert all(type(c) is int and c for _, c in column), key
            assert dict(column) == dict(_d_image(key)), key
            count += 1
    assert count == {3: 1, 4: 0, 5: 3, 6: 39, 7: 579}[g]


@pytest.mark.parametrize("g, simple", [(5, 19), (6, 310)])
def test_closure_contracts_one_edge_per_orbit(monkeypatch, g, simple):
    """The closure makes one simple contraction per edge orbit of each
    class, a count that does not depend on how a class is labelled;
    contracting every edge makes 62 at loop order 5 and 651 at 6."""
    contract = generate_module.contract_edge
    made = []

    def counting(graph, j):
        image = contract(graph, j)
        if not isinstance(image, NonSimple):
            made.append(image)
        return image

    monkeypatch.setattr(generate_module, "contract_edge", counting)
    graded_classes.__wrapped__(g)
    assert len(made) == simple


@pytest.mark.parametrize("g", range(3, 8))
def test_top_splits_find_every_class_below_the_cubic_grade(g):
    """The contractions that undo a top split, from zero and non-zero
    classes alike, already find every class of the grade below, so the
    closure may skip canonizing the others when they add nothing to a
    column."""
    found = _cubic_classes(g)
    for _ in grade_range(g)[1:]:
        top_split_images = set()
        for key in found:
            graph = graph6_decode(key)
            for j in range(graph.k):
                image = contract_edge(graph, j)
                if not isinstance(image, NonSimple) and _undoes_a_top_split(graph, j, image):
                    top_split_images.add(canonical_form(image).canon_key)
        _, found = _contraction_pass(found)
        assert top_split_images == found.keys()


def test_top_split_test_does_not_depend_on_the_labelling():
    """Relabelling a class and its edges alike leaves the answer for each
    edge unchanged, as the completeness argument needs."""
    rng = random.Random(18)
    for classes in graded_classes(6).values():
        for key in sorted(classes):
            graph = graph6_decode(key)
            perm = list(range(graph.n))
            rng.shuffle(perm)
            other = build_graph(graph.n, [(perm[a], perm[b]) for a, b in graph.edges])
            for j in range(graph.k):
                image = contract_edge(graph, j)
                if isinstance(image, NonSimple):
                    continue
                assert _undoes_a_top_split(graph, j, image) == _undoes_a_top_split(
                    other, j, contract_edge(other, j)
                ), (key, j)


def test_contraction_pass_does_not_depend_on_the_labelling():
    """Each class of every grade of loop order 6, walked as a random
    relabelling with a shuffled edge order, gives the same columns and the
    same classes below as its decoded canonical graph: the sign of the
    walked graph to its canonical order corrects every term."""
    rng = random.Random(19)
    signs = set()
    for classes in graded_classes(6).values():
        canonical = {key: _found(key) for key in sorted(classes)}
        relabelled = {}
        for key, (graph, _) in canonical.items():
            other = random_labeling(graph, rng)
            relabelled[key] = other, canonical_form(other)
            signs.add(relabelled[key][1].sign_to_canon)
        columns, below = _contraction_pass(canonical)
        other_columns, other_below = _contraction_pass(relabelled)
        assert {k: dict(c) for k, c in other_columns.items()} == {
            k: dict(c) for k, c in columns.items()
        }
        assert other_below.keys() == below.keys()
    assert -1 in signs


def test_bases_classify_no_class_again(monkeypatch):
    """Each non-zero class is classified once, on the graph that found it,
    when its grade's record is made; the quotient bases read the result."""
    graded_classes(6)  # cached: the bases below read this record
    classify = generate_module.connectivity_class
    calls = []

    def counting(graph):
        calls.append(graph)
        return classify(graph)

    monkeypatch.setattr(generate_module, "connectivity_class", counting)
    graded_classes.__wrapped__(6)
    assert len(calls) == 39
    graded_bases(6, "biconnected")
    graded_bases(6, "triconnected")
    assert len(calls) == 39


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
