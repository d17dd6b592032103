"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own canonical-labeling
and connectivity shortcuts wherever a check is meant to be independent:
automorphisms and isomorphism classes on small graphs are recomputed from
raw permutations, separation pairs by deleting every vertex pair, and the
vertex removal D by summing every move without the automorphism orbits.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from graphcomplex import (
    FormalSum,
    SimpleGraph,
    build_graph,
    canonical_form,
    is_connected,
)
from graphcomplex.connectivity import roundtrip_failures
from graphcomplex.graphs import component_masks, permutation_sign


# ---------------------------------------------------------------------------
# named graphs used across the suite

def k4() -> SimpleGraph:
    return build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def k5() -> SimpleGraph:
    return build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def k33() -> SimpleGraph:
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def prism() -> SimpleGraph:
    return build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def wheel(rim: int) -> SimpleGraph:
    """Wheel with `rim` rim vertices (hub 0)."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return build_graph(rim + 1, edges)


def fig1_graph() -> SimpleGraph:
    """Ten-vertex graph with three R leaves hanging off a central square."""
    return build_graph(
        10,
        [(4, 5), (4, 0), (4, 3), (5, 0), (5, 3), (6, 7), (6, 0), (6, 1),
         (7, 0), (7, 1), (8, 9), (8, 2), (8, 3), (9, 2), (9, 3), (2, 3), (2, 1)],
    )


def mid_graph() -> SimpleGraph:
    """Six-vertex biconnected non-triconnected graph with two R leaves."""
    return build_graph(
        6,
        [(0, 2), (1, 3), (3, 5), (4, 0), (0, 1), (0, 5), (2, 1), (2, 3), (4, 5), (4, 3)],
    )


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the canonical-labeling machinery)

def relabeled(g: SimpleGraph, perm: tuple[int, ...]) -> SimpleGraph:
    """Apply the vertex permutation to g, keeping the edge order."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def loop_order(g: SimpleGraph) -> int:
    """First Betti number k - n + c, c the number of components."""
    return g.k - g.n + len(component_masks(g))


def brute_automorphisms(g: SimpleGraph) -> list[tuple[int, ...]]:
    """All vertex permutations preserving the edge set (n <= 8 only)."""
    edge_set = set(g.edges)
    auts = []
    for perm in permutations(range(g.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edge_set
            for u, v in g.edges
        ):
            auts.append(perm)
    return auts


def brute_edge_sign(g: SimpleGraph, perm: tuple[int, ...]) -> int:
    """Sign of the edge permutation induced by a vertex automorphism."""
    index = {e: i for i, e in enumerate(g.edges)}
    images = [
        index[(min(perm[u], perm[v]), max(perm[u], perm[v]))] for u, v in g.edges
    ]
    return permutation_sign(images)


def brute_is_zero(g: SimpleGraph) -> bool:
    return any(brute_edge_sign(g, p) < 0 for p in brute_automorphisms(g))


def oracle_generate(r: int, k: int) -> frozenset[bytes]:
    """Canonical keys of all connected min-valence-3 graphs by exhaustive
    labeled enumeration over every k-subset of the edges of K_r."""
    all_pairs = [(u, v) for u in range(r) for v in range(u + 1, r)]
    out: set[bytes] = set()
    for subset in combinations(all_pairs, k):
        degrees = [0] * r
        for u, v in subset:
            degrees[u] += 1
            degrees[v] += 1
        if min(degrees, default=0) < 3:
            continue
        g = build_graph(r, subset)
        if not is_connected(g):
            continue
        out.add(canonical_form(g).canon_key)
    return frozenset(out)


def _splits(g: SimpleGraph, removed: set[int]) -> bool:
    """Whether deleting `removed` leaves two or more components."""
    keep = [v for v in range(g.n) if v not in removed]
    if not keep:
        return False
    nbrs: dict[int, set[int]] = {v: set() for v in keep}
    for u, v in g.edges:
        if u not in removed and v not in removed:
            nbrs[u].add(v)
            nbrs[v].add(u)
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        for y in nbrs[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return len(seen) < len(keep)


def oracle_separation_pairs(g: SimpleGraph) -> list[tuple[int, int]]:
    """All pairs u < v whose deletion leaves two or more components, in
    lexicographic order, by deleting every pair."""
    return [(u, v) for u, v in combinations(range(g.n), 2) if _splits(g, {u, v})]


def oracle_connectivity_class(g: SimpleGraph) -> int:
    """0 for a disconnected graph, else 1, 2 or 3 as `connectivity_class`
    defines it: graphs on fewer than 3 vertices are class 1; otherwise the
    size of the smallest deleted vertex set that leaves two or more
    components, capped at 3."""
    if _splits(g, set()):
        return 0
    if g.n < 3:
        return 1
    if any(_splits(g, {v}) for v in range(g.n)):
        return 1
    return 2 if oracle_separation_pairs(g) else 3


def unreduced_D(g: SimpleGraph) -> FormalSum:
    """D of the concrete graph g, in its own labeling and edge order, summed
    over every move with no automorphism reduction: for each vertex v and
    each way to give v's dangling edge-ends new endpoints among the other
    vertices such that the result stays simple, the graph with v deleted
    (edge positions kept) and the weight (-1)^(deg v + 1) / 2."""
    out = FormalSum()
    for v in range(g.n):
        ends = [(i, b if a == v else a) for i, (a, b) in enumerate(g.edges) if v in (a, b)]
        weight = Fraction((-1) ** (len(ends) + 1), 2)
        others = [u for u in range(g.n) if u != v]
        label = {u: i for i, u in enumerate(others)}
        for targets in product(others, repeat=len(ends)):
            edges = list(g.edges)
            for (i, w), t in zip(ends, targets):
                edges[i] = (t, w)
            pairs = {frozenset(e) for e in edges}
            if len(pairs) < len(edges) or any(len(p) < 2 for p in pairs):
                continue
            out.add_graph(build_graph(g.n - 1, [(label[a], label[b]) for a, b in edges]), weight)
    return out


# triconnected pieces of glued graphs
PIECES = (k4, k5, lambda: wheel(4), lambda: wheel(5), prism, k33)


def glued_graph(
    rng: random.Random, max_vertices: int = 16, one_sums: bool = False
) -> SimpleGraph:
    """Up to four triconnected pieces, each attached at a random edge {u, v}
    of the graph so far through one of its own edges {a, b}: by a 2-sum
    that drops or keeps {u, v}, or in series ({u, v} and {a, b} replaced by
    links u-a and b-v).  With `one_sums`, a piece may instead share the
    single vertex u, which makes u a cut vertex.  A piece that would pass
    `max_vertices` is skipped.  Randomly relabeled."""
    modes = ["sum", "sum_keep", "series"] + (["vertex"] if one_sums else [])
    first = rng.choice(PIECES)()
    n, edges = first.n, list(first.edges)
    for _ in range(rng.randint(0, 3)):
        h = rng.choice(PIECES)()
        mode = rng.choice(modes)
        shared = {"sum": 2, "sum_keep": 2, "series": 0, "vertex": 1}[mode]
        if n + h.n - shared > max_vertices:
            continue
        u, v = rng.choice(edges)
        a, b = rng.choice(h.edges)
        label = {a: u, b: v} if shared == 2 else {a: u} if shared == 1 else {}
        for x in range(h.n):
            if x not in label:
                label[x] = n
                n += 1
        if mode in ("sum", "series"):
            edges.remove((u, v))
        keep_ab = mode == "vertex"
        edges += [(label[x], label[y]) for x, y in h.edges if keep_ab or (x, y) != (a, b)]
        if mode == "series":
            edges += [(u, label[a]), (label[b], v)]
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[x], perm[y]) for x, y in edges])


# ---------------------------------------------------------------------------
# SPQR structural invariants, shared by the unit and acceptance suites

def check_spqr_invariants(g: SimpleGraph, tree) -> None:
    """Assert every structural invariant of an SPQR tree of g."""
    kinds = {n.kind for n in tree.nodes}
    assert kinds <= {"S", "P", "R"}

    # real edges partition the graph's edge set
    real = [e for n in tree.nodes for e in n.real_edges]
    assert sorted(real) == sorted(g.edges)

    # the tree is a tree and twins are consistent
    assert len(tree.tree_edges) == len(tree.nodes) - 1
    for node in tree.nodes:
        for ve in node.virtual_edges:
            twin = tree.node(ve.twin_node).virtual_edges[ve.twin_index]
            assert twin.twin_node == node.id
            assert frozenset(twin.endpoints) == frozenset(ve.endpoints)

    # skeleton shapes: S = cycle, P = >= 3 parallel edges, R = triconnected
    seps = set(map(frozenset, oracle_separation_pairs(g))) if len(tree.nodes) > 1 else set()
    for node in tree.nodes:
        m = len(node.real_edges) + len(node.virtual_edges)
        if node.kind == "S":
            assert m == len(node.vertices) >= 3
            deg = {v: 0 for v in node.vertices}
            for e in list(node.real_edges) + [ve.endpoints for ve in node.virtual_edges]:
                for v in e:
                    deg[v] += 1
            assert all(d == 2 for d in deg.values())
        elif node.kind == "P":
            assert len(node.vertices) == 2 and m >= 3
        else:
            verts = sorted(node.vertices)
            pos = {v: i for i, v in enumerate(verts)}
            compact = build_graph(
                len(verts),
                [(pos[a], pos[b]) for a, b in node.real_edges]
                + [tuple(sorted((pos[a], pos[b]))) for a, b in
                   (ve.endpoints for ve in node.virtual_edges)],
            )
            assert oracle_connectivity_class(compact) >= 3

        # every virtual edge marks a separation pair of the whole graph
        for ve in node.virtual_edges:
            assert frozenset(ve.endpoints) in seps

    # no same-kind S-S or P-P adjacency
    for a, b in tree.tree_edges:
        ka, kb = tree.node(a).kind, tree.node(b).kind
        assert not (ka == kb and ka in ("S", "P"))

    # round trip up to isomorphism
    assert not roundtrip_failures([g])


def check_leaf_r(g: SimpleGraph, tree) -> None:
    """Every leaf of the SPQR tree of a >=3-valent graph is an R node."""
    if len(tree.nodes) < 2 or min(g.degrees()) < 3:
        return
    for leaf in tree.leaves():
        assert tree.node(leaf).kind == "R"


@pytest.fixture(scope="session")
def figure_one():
    return fig1_graph()
