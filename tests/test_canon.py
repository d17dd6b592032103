"""Canonical forms: oracle comparison against raw permutation brute force."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcomplex import aut_group_order, build_graph, canonical_form, graph6_decode

from conftest import (
    brute_automorphisms,
    brute_edge_sign,
    brute_is_zero,
    k4,
    k5,
    k33,
    prism,
    relabeled,
    wheel,
)


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, keep in zip(pairs, mask) if keep])


@given(small_graph(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_canon_key_is_isomorphism_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabeled(g, tuple(perm))
    assert canonical_form(g).canon_key == canonical_form(h).canon_key


@given(small_graph())
@settings(max_examples=150, deadline=None)
def test_aut_order_matches_brute_force(g):
    cf = canonical_form(g)
    assert aut_group_order(g.n, cf.aut_generators) == len(brute_automorphisms(g))


@given(small_graph())
@settings(max_examples=150, deadline=None)
def test_is_zero_matches_brute_force(g):
    assert canonical_form(g).is_zero == brute_is_zero(g)


@given(small_graph(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_sign_to_canon_composes_like_edge_permutation_sign(g, rng):
    """Relabeling by sigma multiplies the canonical sign by the edge sign
    of sigma, unless the class is zero (where signs are meaningless)."""
    cf = canonical_form(g)
    if cf.is_zero:
        return
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabeled(g, tuple(perm))
    # edge sign of the relabeling map from g's edge order to h's edge order
    index = {e: i for i, e in enumerate(h.edges)}
    from graphcomplex.graphs import permutation_sign

    images = [index[(min(perm[u], perm[v]), max(perm[u], perm[v]))] for u, v in g.edges]
    rel_sign = permutation_sign(images)
    assert canonical_form(h).sign_to_canon * rel_sign == cf.sign_to_canon


def test_canon_graph_is_a_relabeling_with_recorded_sign():
    g = build_graph(5, [(3, 4), (0, 4), (1, 2), (1, 4), (0, 2)])
    cf = canonical_form(g)
    assert graph6_decode(cf.canon_key).n == g.n
    assert relabeled(g, tuple(cf.relabel)).adj == cf.canon_graph.adj
    assert cf.sign_to_canon in (-1, 1)


@pytest.mark.parametrize(
    "graph,order,zero",
    [
        (k4(), 24, False),
        (k5(), 120, True),
        (k33(), 72, True),
        (prism(), 12, True),
        (wheel(4), 8, True),   # 4-wheel: odd rim reflection
        (wheel(5), 10, False),  # 5-wheel spans a nonzero class
    ],
)
def test_known_automorphism_orders_and_zero_classes(graph, order, zero):
    cf = canonical_form(graph)
    assert aut_group_order(graph.n, cf.aut_generators) == order
    assert cf.is_zero == zero
    assert zero == brute_is_zero(graph)


def test_colored_canonical_form_distinguishes_colors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    plain = canonical_form(g).canon_key
    a = canonical_form(g, colors=(1, 0, 0, 0)).canon_key
    b = canonical_form(g, colors=(0, 1, 0, 0)).canon_key
    assert a != plain
    # the square's rotation maps one coloring to the other
    assert a == b
    c = canonical_form(g, colors=(1, 1, 0, 0)).canon_key
    d = canonical_form(g, colors=(1, 0, 1, 0)).canon_key
    assert c != d  # adjacent vs opposite marked corners


def test_colored_invariance_under_color_respecting_relabeling():
    rng = random.Random(7)
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    colors = (1, 2, 1, 0, 0, 2)
    for _ in range(50):
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabeled(g, tuple(perm))
        moved = [0] * 6
        for v in range(6):
            moved[perm[v]] = colors[v]
        assert (
            canonical_form(h, colors=tuple(moved)).canon_key
            == canonical_form(g, colors=colors).canon_key
        )


def test_cached_labeling_matches_direct_sign_and_ignores_edge_order():
    """The labeling cache holds what does not depend on the edge order; the
    sign must still equal the direct formula (the parity of the input edges'
    images under the relabeling), cold or warm, in every edge order."""
    from graphcomplex.canon import _canonical_labeling
    from graphcomplex.graphs import permutation_sign

    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        colors = tuple(rng.randint(0, 2) for _ in range(n)) if rng.random() < 0.3 else None
        _canonical_labeling.cache_clear()
        first = None
        for _ in range(4):
            rng.shuffle(edges)
            g = build_graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
            cf = canonical_form(g, colors)  # cold in the first order
            first = first or cf
            warm = canonical_form(g, colors)
            assert warm == cf
            perm = warm.relabel
            direct = permutation_sign(
                [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]
            )
            assert warm.sign_to_canon == direct, (g, colors)
            assert (warm.canon_key, warm.is_zero, warm.aut_generators, warm.relabel) == (
                first.canon_key, first.is_zero, first.aut_generators, first.relabel
            )
            assert relabeled(g, perm).adj == warm.canon_graph.adj


def _random_cubic(rng: random.Random, n: int):
    """A random simple cubic graph on n vertices (pairing model, rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return build_graph(n, sorted(edges))


def test_cold_labeling_digest():
    """Byte-identity guard of the canonizer itself: keys, signs, zero flags,
    automorphism generators in the order found, and relabelings, computed
    without the cache on 2,000 seeded graphs (300 random cubic ones on 4-20
    vertices, the rest on 1-16 vertices; 30% colored).  The digest was
    computed at commit 4bdc767, before the splitter work-list."""
    from graphcomplex.canon import _canonical_labeling

    rng = random.Random(8)
    lines = []
    for i in range(2000):
        if i < 300:
            g = _random_cubic(rng, rng.randrange(4, 21, 2))
        else:
            n = rng.randint(1, 16)
            p = rng.random()
            g = build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
        colors = tuple(rng.randint(0, 2) for _ in range(g.n)) if rng.random() < 0.3 else None
        lines.append(repr(_canonical_labeling.__wrapped__(g.n, g.adj, colors)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "889931a71498de997aabea02ce1f8bfb5f7ebb2e9212b926eb04f571c0b2448d"
    )


def _edge_swapped(rng: random.Random, g):
    """g after one random degree-preserving swap ab, cd -> ac, bd, if one
    keeps the graph simple; otherwise g."""
    edges = list(g.edges)
    (a, b), (c, d) = rng.sample(edges, 2)
    if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
        edges = [e for e in edges if e not in ((a, b), (c, d))] + [(a, c), (b, d)]
    return build_graph(g.n, edges)


def test_canon_keys_match_networkx_isomorphism():
    """Past the brute-force horizon: on seeded graphs with 9-14 vertices,
    cubic and colored ones included, two graphs have equal keys exactly
    when networkx finds a (color-preserving) isomorphism.  Graphs are
    compared within groups of equal degree and color multisets, each graph
    next to a relabeled copy and a degree-preserving edge swap of it."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(12)
    groups: dict[tuple, list] = {}

    def add(g, colors):
        key = canonical_form(g, colors).canon_key
        h = nx.Graph()
        h.add_nodes_from((v, {"c": colors[v] if colors else 0}) for v in range(g.n))
        h.add_edges_from(g.edges)
        group = (g.n, tuple(sorted(g.degrees())), tuple(sorted(colors or ())))
        groups.setdefault(group, []).append((key, h))

    for i in range(90):
        if i < 30:
            g = _random_cubic(rng, (10, 12, 14)[i % 3])
        else:
            n = rng.randint(9, 14)
            g = build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
            )
        colors = tuple(rng.randint(0, 1) for _ in range(g.n)) if i % 4 == 0 else None
        for h in (g, _edge_swapped(rng, g)):
            perm = list(range(h.n))
            rng.shuffle(perm)
            moved = None
            if colors:
                moved = [0] * h.n
                for v in range(h.n):
                    moved[perm[v]] = colors[v]
            add(h, colors)
            add(relabeled(h, tuple(perm)), tuple(moved) if moved else None)

    same = differ = 0
    for members in groups.values():
        for i, (key_a, a) in enumerate(members):
            for key_b, b in members[i + 1 :]:
                iso = nx.is_isomorphic(a, b, node_match=lambda x, y: x["c"] == y["c"])
                assert (key_a == key_b) == iso
                same += iso
                differ += not iso
    assert same > 400 and differ > 1200, (same, differ)
