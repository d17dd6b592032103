"""Connectivity classes, SPQR decomposition, and contraction-case predictions."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcomplex import (
    build_graph,
    connectivity_class,
    edge_owner,
    r_edge_weight,
    separation_pairs,
    spqr,
)
from graphcomplex import connectivity
from graphcomplex.connectivity import (
    _cut_vertices,
    _dense,
    contraction_case_failures,
    roundtrip_failures,
    tree_to_json,
)
from graphcomplex.graphs import GraphError
from graphcomplex.sampling import biconnected_samples, nontri_samples

from conftest import (
    check_leaf_r,
    check_spqr_invariants,
    fig1_graph,
    glued_graph,
    k4,
    mid_graph,
    oracle_connectivity_class,
    oracle_separation_pairs,
)


def test_connectivity_class_basics():
    path = build_graph(3, [(0, 1), (1, 2)])
    cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert connectivity_class(path) == 1
    assert connectivity_class(cycle) == 2
    assert connectivity_class(k4()) >= 3
    two_triangles = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert connectivity_class(two_triangles) == 1  # cut vertex 2


def test_separation_pairs_cycle():
    cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    pairs = set(map(frozenset, separation_pairs(cycle)))
    assert pairs == {frozenset({0, 2}), frozenset({1, 3})}
    assert separation_pairs(k4()) == []


def test_connectivity_matches_brute_force_oracle():
    rng = random.Random(17)
    seen = set()
    for _ in range(600):
        n = rng.randint(3, 12)
        p = rng.uniform(0.15, 0.9)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        assert separation_pairs(g) == oracle_separation_pairs(g)
        expected = oracle_connectivity_class(g)
        seen.add(expected)
        if expected == 0:
            with pytest.raises(GraphError):
                connectivity_class(g)
        else:
            assert connectivity_class(g) == expected
    assert seen == {0, 1, 2, 3}


def test_connectivity_class_matches_networkx_on_glued_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    seen = set()
    checked = 0
    while checked < 150:
        g = glued_graph(rng, 16, one_sums=True)
        if g.n < 9:
            continue
        # random chords make some graphs triconnected
        chords = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if not g.has_edge(u, v)]
        g = build_graph(g.n, list(g.edges) + rng.sample(chords, rng.randint(0, 4)))
        checked += 1
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        expected = min(nx.node_connectivity(h), 3)
        seen.add(expected)
        assert connectivity_class(g) == expected, g
    assert seen == {1, 2, 3}


def _pieces_without(adj, keep, v):
    """Components of the graph induced on keep - {v}, by search over sets."""
    rest = {x for x in range(len(adj)) if keep >> x & 1} - {v}
    pieces = 0
    while rest:
        pieces += 1
        stack = [rest.pop()]
        while stack:
            x = stack.pop()
            for y in [y for y in rest if adj[x] >> y & 1]:
                rest.discard(y)
                stack.append(y)
    return pieces


def test_cut_vertices_match_deletion_oracle():
    rng = random.Random(41)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(0, 11)
        p = rng.uniform(0.05, 0.8)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        # a random keep mask: empty, single-vertex, full or arbitrary
        keep = rng.choice([0, 1 << rng.randrange(n) if n else 0, (1 << n) - 1,
                           rng.getrandbits(n) if n else 0])
        expected = sum(1 << v for v in range(n)
                       if keep >> v & 1 and _pieces_without(adj, keep, v) >= 2)
        assert _cut_vertices(adj, keep) == expected, (adj, keep)
        kinds.add(min(_pieces_without(adj, keep, -1), 3))
    assert kinds == {0, 1, 2, 3}  # empty, connected and disconnected masks


def _all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _assert_dense_is_r(g):
    assert oracle_connectivity_class(g) == 3, g
    assert connectivity_class(g) == 3
    assert [n.kind for n in spqr(g).nodes] == ["R"]


def test_min_degree_certificate_on_small_and_random_graphs():
    dense = [g for n in range(1, 7) for g in _all_graphs(n)
             if _dense(g.n, min(g.degrees()))]
    # K4; K5 less a matching (1 + 10 + 15); K6 less a matching (1 + 15 + 45 + 15)
    assert len(dense) == 1 + 26 + 76
    for g in dense:
        _assert_dense_is_r(g)
    rng = random.Random(43)
    found = 0
    while found < 300:
        n = rng.randint(4, 14)
        p = rng.uniform(0.5, 0.95)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        if _dense(g.n, min(g.degrees())):
            found += 1
            _assert_dense_is_r(g)


def test_spqr_lowpoint_pass_budget(monkeypatch):
    """Deterministic work guard: the number of `_cut_vertices` passes that
    `spqr` makes on the digest sample (7,753 before the inherited cut masks
    and the degree certificate)."""
    passes = [0]

    def counting(adj, keep):
        passes[0] += 1
        return _cut_vertices(adj, keep)

    monkeypatch.setattr(connectivity, "_cut_vertices", counting)
    for g in biconnected_samples(500, seed=31):
        spqr(g)
    assert passes[0] <= 6120


def test_spqr_and_separation_pairs_output_digests():
    """Byte-identity guard: both digests were computed with the brute-force
    pair scans (commit cd805f7) that the lowpoint search replaced."""
    sample = biconnected_samples(500, seed=31)
    trees = "".join(tree_to_json(spqr(g)) for g in sample)
    assert hashlib.sha256(trees.encode()).hexdigest() == (
        "07ee0df6fa1543bff05518e4e08f1fbfcbae13926c88312f6e97870801374930"
    )
    pairs = "".join(repr((connectivity_class(g), separation_pairs(g))) for g in sample)
    assert hashlib.sha256(pairs.encode()).hexdigest() == (
        "e5aaee957dbbb3821a78279d9faa21ef7ecbeb5959dc43c1c2af354fdde98cfc"
    )


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_spqr_fuzz_on_glued_graphs(rng):
    g = glued_graph(rng, 16)
    assert not roundtrip_failures([g])
    tree = spqr(g)
    pairs = oracle_separation_pairs(g)
    seps = set(map(frozenset, pairs))
    for node in tree.nodes:
        for ve in node.virtual_edges:
            assert frozenset(ve.endpoints) in seps
    assert separation_pairs(g) == pairs


def test_spqr_rejects_non_biconnected():
    with pytest.raises(GraphError, match="biconnected"):
        spqr(build_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(GraphError):
        spqr(build_graph(2, [(0, 1)]))
    with pytest.raises(GraphError, match="requires a connected graph"):
        spqr(build_graph(4, [(0, 1), (1, 2), (2, 0)]))


def test_spqr_triconnected_single_node():
    tree = spqr(k4())
    assert len(tree.nodes) == 1
    assert tree.nodes[0].kind == "R"
    assert r_edge_weight(tree) == 6
    check_spqr_invariants(k4(), tree)


def test_spqr_cycle_single_s_node():
    cycle = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    tree = spqr(cycle)
    assert [n.kind for n in tree.nodes] == ["S"]
    assert r_edge_weight(tree) == 0


def test_figure_one_tree_shape():
    g = fig1_graph()
    tree = spqr(g)
    kinds = sorted(n.kind for n in tree.nodes)
    leaves = tree.leaves()
    assert len(leaves) == 3
    assert all(tree.node(x).kind == "R" for x in leaves)
    assert kinds.count("R") == 3
    assert r_edge_weight(tree) == 15
    check_spqr_invariants(g, tree)
    check_leaf_r(g, tree)


def test_mid_graph_tree():
    g = mid_graph()
    tree = spqr(g)
    assert sum(1 for n in tree.nodes if n.kind == "R") == 2
    check_spqr_invariants(g, tree)
    check_leaf_r(g, tree)


def test_edge_owner_covers_all_edges():
    g = fig1_graph()
    tree = spqr(g)
    owners = [edge_owner(tree, j) for j in range(g.k)]
    assert all(kind in ("S", "P", "R") for _, kind in owners)


def test_tree_json_is_valid():
    doc = json.loads(tree_to_json(spqr(fig1_graph())))
    assert doc["graph"]["vertices"] == 10
    assert len(doc["nodes"]) >= 4


def test_roundtrip_and_invariants_random_sample():
    for g in biconnected_samples(120, seed=5):
        check_spqr_invariants(g, spqr(g))


def test_leaf_r_on_three_valent_sample():
    for g in nontri_samples(60, seed=9, max_loops=6):
        check_leaf_r(g, spqr(g))


def test_contraction_case_against_recomputation():
    checked, failures = contraction_case_failures(nontri_samples(100, seed=11, max_loops=6))
    assert not failures
    assert checked >= 300
