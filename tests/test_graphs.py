"""Core graph type: construction, contraction, grading, graph6 codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcomplex import (
    GraphError,
    add_edge,
    build_graph,
    cohomology_dims,
    complete_graph,
    contract_edge,
    graph6_decode,
    graph6_encode,
    is_connected,
)
from graphcomplex.graphs import (
    ALREADY_ADJACENT,
    NonSimple,
    component_masks,
    permutation_sign,
)

from conftest import k4, loop_order


def test_build_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])  # loop
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])  # vertex out of range


def test_edges_stored_sorted_within_pair_preserving_order():
    g = build_graph(4, [(2, 1), (3, 0), (0, 1)])
    assert g.edges == ((1, 2), (0, 3), (0, 1))
    assert g.n == 4 and g.k == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.degree(0) == 2


def test_complete_graph():
    g = complete_graph(5)
    assert g.k == 10
    assert all(g.degree(v) == 4 for v in range(5))


def test_contract_simple_edge_keeps_lower_label_and_edge_order():
    # square 0-1-2-3: contracting (2,3) leaves a triangle on 0,1,2
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = contract_edge(g, 2)
    assert not isinstance(h, NonSimple)
    assert h.n == 3
    # surviving edges keep their relative order
    assert h.edges == ((0, 1), (1, 2), (0, 2))


def test_contract_non_simple_when_endpoints_share_a_neighbor():
    assert isinstance(contract_edge(k4(), 0), NonSimple)


def test_contract_preserves_loop_order():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    for j in range(g.k):
        h = contract_edge(g, j)
        if isinstance(h, NonSimple):
            continue
        assert loop_order(h) == loop_order(g)


def test_add_edge_goes_first():
    g = build_graph(4, [(0, 1), (2, 3)])
    h = add_edge(g, 1, 3)
    assert h.edges == ((1, 3), (0, 1), (2, 3))
    assert add_edge(g, 0, 1) is ALREADY_ADJACENT


def test_grading_k4():
    """K4 is the one class at loop order 3; its grade row carries the n=0
    and n=2 degree readouts -k and k - 2(r-1)."""
    assert loop_order(k4()) == 3
    (row,) = [r for r in cohomology_dims(3).rows if r.vertex_count == 4]
    assert (row.degree_n0, row.degree_n2, row.dim_basis) == (-6, 0, 1)


def test_components_and_connectivity():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4)])
    assert not is_connected(g)
    masks = component_masks(g)  # vertex 5 is isolated
    assert sorted(m.bit_count() for m in masks) == [1, 2, 3]


def test_permutation_sign():
    assert permutation_sign([0, 1, 2]) == 1
    assert permutation_sign([1, 0, 2]) == -1
    assert permutation_sign([2, 0, 1]) == 1


def test_permutation_sign_matches_inversion_parity():
    """Oracle: the parity of the number of inversions, on seeded sequences
    of distinct ints and of distinct edge tuples of lengths 0-30."""
    rng = random.Random(3)
    for i in range(3000):
        length = rng.randint(0, 30)
        if i % 2:
            pairs = [(u, v) for u in range(9) for v in range(u + 1, 9)]
            seq = rng.sample(pairs, length)
        else:
            seq = rng.sample(range(-50, 50), length)
        inversions = sum(
            seq[a] > seq[b] for a in range(length) for b in range(a + 1, length)
        )
        assert permutation_sign(seq) == (-1) ** inversions, seq


def test_graph6_matches_bitwise_definition():
    """graph6 on 0-62 vertices: the byte 63 + n, then the upper triangle
    column by column in 6-bit groups, zero-padded, each plus 63."""
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(0, 62)
        p = rng.random()
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        bits = [g.adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
        bits += [0] * (-len(bits) % 6)
        groups = [bits[s : s + 6] for s in range(0, len(bits), 6)]
        expected = bytes([63 + n] + [63 + int("".join(map(str, b)), 2) for b in groups])
        assert graph6_encode(g) == expected


def test_graph6_known_value():
    # K4 is the canonical 'C~' example of the format
    assert graph6_encode(k4()) == b"C~"
    assert graph6_decode(b"C~").edges == k4().edges or set(
        graph6_decode(b"C~").edges
    ) == set(k4().edges)


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, keep in zip(pairs, mask) if keep])


@given(random_graph())
@settings(max_examples=200, deadline=None)
def test_graph6_round_trip(g):
    back = graph6_decode(graph6_encode(g))
    assert back.n == g.n
    assert set(back.edges) == set(g.edges)
