"""Leaf-labeled graphs, the S-restricted differential d', and the
contracting homotopy h on the associated graded of the filtration by
real edges in R skeleta.

A labeled graph is a biconnected >=3-valent graph whose SPQR tree has at
least two nodes, together with an ordering of its R leaves.  Both d' and
h leave every R skeleton untouched as an abstract graph, so the labels
transport along the operations by matching skeleton real-edge sets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .connectivity import SpqrTree, edge_owner, spqr
from .formal import FormalSum
from .graphs import GraphError, NonSimple, SimpleGraph, contract_edge, split_vertex


class HomotopyError(RuntimeError):
    """Violated structural assumption (non-R leaf, lost label, valence)."""


class LabeledGraph(NamedTuple):
    """Graph + SPQR tree + R-leaf labels (leaf_ids[i] carries label i+1)."""

    graph: SimpleGraph
    tree: SpqrTree
    leaf_ids: tuple[int, ...]

    @property
    def label_count(self) -> int:
        return len(self.leaf_ids)

    def colors(self) -> tuple[int, ...]:
        """Vertex color = bitmask of labels whose leaf skeleton contains it."""
        if self.label_count > 8:
            raise HomotopyError("more than 8 leaf labels not supported")
        cols = [0] * self.graph.n
        for i, node_id in enumerate(self.leaf_ids):
            for v in self.tree.node(node_id).vertices:
                cols[v] |= 1 << i
        return tuple(cols)


def to_labeled(
    g: SimpleGraph, label_order: tuple[int, ...] | None = None
) -> LabeledGraph:
    """Label the R leaves of g's SPQR tree (default: ascending node id).

    Rejects triconnected input (single-node tree) and graphs with a
    valence below 3.
    """
    if min(g.degrees(), default=0) < 3:
        raise GraphError("labeled graphs must be >= 3-valent")
    tree = spqr(g)  # raises on non-biconnected input
    if len(tree.nodes) < 2:
        raise GraphError("triconnected graph: SPQR tree has a single node")
    leaves = tree.leaves()
    for leaf in leaves:
        if tree.node(leaf).kind != "R":
            raise HomotopyError(f"non-R leaf {leaf} on >=3-valent input")
    if label_order is None:
        label_order = tuple(sorted(leaves))
    if sorted(label_order) != sorted(leaves):
        raise GraphError("label order must be a permutation of the R leaves")
    return LabeledGraph(graph=g, tree=tree, leaf_ids=tuple(label_order))


def _transport_labels(
    old: LabeledGraph,
    new_graph: SimpleGraph,
    edge_map: dict[tuple[int, int], tuple[int, int]],
    trees: dict[SimpleGraph, SpqrTree] | None = None,
) -> LabeledGraph:
    """Rebuild the tree of new_graph and re-identify each labeled leaf by
    the image of its skeleton real edges under edge_map, which takes each
    old edge that survives to its new edge.  `trees`, if given, holds the
    SPQR trees already built, by graph, and gains new_graph's."""
    if trees is None:
        trees = {}
    new_tree = trees.get(new_graph)
    if new_tree is None:
        new_tree = trees[new_graph] = spqr(new_graph)
    by_reals = {frozenset(n.real_edges): n.id for n in new_tree.nodes}
    new_ids = []
    for node_id in old.leaf_ids:
        # a leaf edge without an image maps to None, which no node holds
        mapped = frozenset(edge_map.get(e) for e in old.tree.node(node_id).real_edges)
        target = by_reals.get(mapped)
        if target is None or new_tree.node(target).kind != "R":
            raise HomotopyError("leaf label lost in transport")
        new_ids.append(target)
    return LabeledGraph(graph=new_graph, tree=new_tree, leaf_ids=tuple(new_ids))


def d_prime(
    lg: LabeledGraph, trees: dict[SimpleGraph, SpqrTree] | None = None
) -> list[tuple[LabeledGraph, int]]:
    """Edge contraction restricted to S-owned real edges, sign (-1)^(j-1).
    `trees` is as in `_transport_labels`."""
    edges = lg.graph.edges
    out = []
    for j in range(lg.graph.k):
        _, kind = edge_owner(lg.tree, j)
        if kind != "S":
            continue
        image = contract_edge(lg.graph, j)
        if isinstance(image, NonSimple):
            continue
        # the image keeps the order of the surviving edges
        edge_map = dict(zip(edges[:j] + edges[j + 1:], image.edges))
        out.append((_transport_labels(lg, image, edge_map, trees), (-1) ** j))
    return out


def _subtree_nodes(tree: SpqrTree, root: int, blocked: int) -> set[int]:
    """Node ids reachable from root without crossing the edge to `blocked`."""
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in tree.neighbors(x):
            if y == blocked and x == root:
                continue
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _branch_edges_at(
    lg: LabeledGraph, x: int, nodes: set[int]
) -> list[int]:
    """Positions of graph edges incident to x owned by the given tree nodes."""
    positions = []
    owner_of = {}
    for node_id in nodes:
        for e in lg.tree.node(node_id).real_edges:
            owner_of[e] = node_id
    for j, e in enumerate(lg.graph.edges):
        if x in e and e in owner_of:
            positions.append(j)
    return positions


def _split_corner(
    lg: LabeledGraph,
    x: int,
    side_positions: list[int],
    trees: dict[SimpleGraph, SpqrTree] | None,
) -> tuple[LabeledGraph, int]:
    """Split vertex x: edges at the given positions move to a new vertex
    joined to x by a new first edge; labels transport."""
    g = lg.graph
    new_graph = split_vertex(g, x, side_positions)
    if min(new_graph.degrees()) < 3:
        raise HomotopyError(f"corner split at vertex {x} produced a <3-valent vertex")
    # the old edges follow the new first edge in their old order
    edge_map = dict(zip(g.edges, new_graph.edges[1:]))
    return _transport_labels(lg, new_graph, edge_map, trees), 1


def n_value(lg: LabeledGraph) -> int:
    """Number of virtual edges of the S node adjacent to the first leaf,
    or 2 if that neighbor is not an S node."""
    first = lg.leaf_ids[0]
    (neighbor,) = lg.tree.neighbors(first)
    node = lg.tree.node(neighbor)
    if node.kind == "S":
        return len(node.virtual_edges)
    return 2


def h_homotopy(
    lg: LabeledGraph, trees: dict[SimpleGraph, SpqrTree] | None = None
) -> list[tuple[LabeledGraph, int]]:
    """Corner splits next to the first leaf: insert one real edge between
    consecutive virtual edges of the adjacent S node (or of the degenerate
    two-virtual-edge S node when the neighbor is P or R).  `trees` is as
    in `_transport_labels`."""
    tree = lg.tree
    first = lg.leaf_ids[0]
    (w_id,) = tree.neighbors(first)
    w_node = tree.node(w_id)
    out = []
    if w_node.kind == "S":
        # cycle corners whose two incident cycle edges are both virtual
        incident: dict[int, list] = {}
        for ve in w_node.virtual_edges:
            for v in ve.endpoints:
                incident.setdefault(v, []).append(("v", ve))
        for e in w_node.real_edges:
            for v in e:
                incident.setdefault(v, []).append(("r", e))
        for x in sorted(w_node.vertices):
            kinds = incident.get(x, [])
            if len(kinds) != 2 or any(k != "v" for k, _ in kinds):
                continue
            ve_b = kinds[1][1]
            side = _branch_edges_at(
                lg, x, _subtree_nodes(tree, ve_b.twin_node, w_id)
            )
            out.append(_split_corner(lg, x, side, trees))
    else:
        # degenerate S node on the V-W tree edge: two corners, the poles
        (ve,) = tree.node(first).virtual_edges
        v_side_nodes = _subtree_nodes(tree, first, w_id)
        for x in sorted(ve.endpoints):
            side = _branch_edges_at(lg, x, v_side_nodes)
            out.append(_split_corner(lg, x, side, trees))
    return out


def labeled_sum(terms: list[tuple[LabeledGraph, int | Fraction]]) -> FormalSum:
    out = FormalSum()
    for lg, coeff in terms:
        out.add_graph(lg.graph, coeff, colors=lg.colors())
    return out


def homotopy_check(lg: LabeledGraph) -> dict:
    """Exact check of d'h(gamma) + h(d'gamma) = N_gamma * gamma.

    The d'h and hd' terms share many graphs, and some d'h terms are gamma
    itself, so one dict of SPQR trees by graph, starting from gamma's,
    serves the whole check and is dropped with it."""
    trees = {lg.graph: lg.tree}
    lhs = FormalSum()
    for hterm, hsign in h_homotopy(lg, trees):
        for dterm, dsign in d_prime(hterm, trees):
            lhs.add_graph(dterm.graph, hsign * dsign, colors=dterm.colors())
    for dterm, dsign in d_prime(lg, trees):
        for hterm, hsign in h_homotopy(dterm, trees):
            lhs.add_graph(hterm.graph, dsign * hsign, colors=hterm.colors())
    n = n_value(lg)
    rhs = labeled_sum([(lg, n)])
    return {
        "n_value": n,
        "passed": lhs == rhs,
        "lhs": lhs,
        "rhs": rhs,
    }


def shuffled_leaf_failures(
    samples: Sequence[SimpleGraph], seed: int
) -> list[tuple[LabeledGraph, dict]]:
    """homotopy_check on each sample with its R leaves in an order drawn by
    one random.Random(seed) stream; the (labeled graph, report) of each
    sample that fails."""
    rng = random.Random(seed)
    failures = []
    for g in samples:
        lg = to_labeled(g)
        order = list(lg.leaf_ids)
        rng.shuffle(order)
        lg = lg._replace(leaf_ids=tuple(order))
        rep = homotopy_check(lg)
        if not rep["passed"]:
            failures.append((lg, rep))
    return failures
