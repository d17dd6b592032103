"""Connectivity classification and SPQR tree decomposition.

Cut vertices come from one iterative lowpoint DFS (Hopcroft and Tarjan,
"Dividing a graph into triconnected components", SIAM J. Comput. 2, 1973):
a separation pair {u, v} is a vertex u together with a cut vertex v of the
graph with u removed.  So a graph is triconnected when it passes the
minimum-degree certificate `_dense` (no pass at all) or when none of the
passes for the graph and each graph minus one vertex finds a cut vertex;
`connectivity_class` stops at the first pass that does.  The SPQR tree is
built by recursive splitting at the least separation pair, which fixes the
split order and hence the virtual-edge ids.  Every split component is a
simple graph of real and virtual edges; it inherits its first pass from
its parent and skips the scan when it is a cycle or passes `_dense` (see
`_decompose`).
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

from .canon import canonical_form
from .graphs import (
    GraphError,
    NonSimple,
    SimpleGraph,
    build_graph,
    contract_edge,
    is_connected,
    mask_components,
)

# internal part edge: (u, v, vid), u < v, with vid None for a real edge; parts
# never relabel vertices, so a real edge is its own graph edge
_PartEdge = tuple[int, int, "int | None"]


class SpqrError(ValueError):
    """Structurally invalid SPQR input."""


class VirtualEdge(NamedTuple):
    endpoints: tuple[int, int]
    twin_node: int
    twin_index: int


class SpqrNode(NamedTuple):
    id: int
    kind: str  # "S" | "P" | "R"
    vertices: frozenset[int]
    real_edges: tuple[tuple[int, int], ...]
    virtual_edges: tuple[VirtualEdge, ...]


class SpqrTree(NamedTuple):
    graph: SimpleGraph
    nodes: tuple[SpqrNode, ...]
    tree_edges: tuple[tuple[int, int], ...]

    def node(self, node_id: int) -> SpqrNode:
        return self.nodes[node_id]

    def neighbors(self, node_id: int) -> list[int]:
        """The tree neighbours of a node, ascending: one per virtual edge."""
        return sorted([ve.twin_node for ve in self.nodes[node_id].virtual_edges])

    def leaves(self) -> list[int]:
        if len(self.nodes) == 1:
            return [self.nodes[0].id]
        return [n.id for n in self.nodes if len(n.virtual_edges) == 1]


def _cut_vertices(adj: Sequence[int], keep: int) -> int:
    """Bitmask of the vertices v in the bitmask `keep` such that the graph
    induced on keep - {v} has two or more components.

    `adj[x]` is the neighbour bitmask of x.  On a connected induced graph
    these are its articulation points: a DFS root with two or more
    children, and any other vertex p with a child whose subtree reaches
    no proper ancestor of p by a back edge.  On a disconnected one, every
    vertex except an isolated one whose deletion leaves a single
    component: all of `keep` with three or more components, and all but
    the isolated vertices with two.
    """
    disc = [0] * len(adj)  # DFS number
    low = [0] * len(adj)  # least DFS number reachable by one back edge from the subtree
    cuts = 0
    isolated = 0
    comps = 0
    count = 0
    todo = keep  # not yet visited
    while todo:
        root = (todo & -todo).bit_length() - 1
        todo ^= 1 << root
        comps += 1
        count += 1
        disc[root] = count
        children = 0
        stack = [root]
        while stack:
            v = stack[-1]
            nxt = adj[v] & todo
            if nxt:
                w = (nxt & -nxt).bit_length() - 1
                todo ^= 1 << w
                count += 1
                disc[w] = lw = count
                # visited neighbours other than the parent are ancestors
                back = adj[w] & (keep ^ todo) & ~(1 << v)
                while back:
                    x = (back & -back).bit_length() - 1
                    back &= back - 1
                    if disc[x] < lw:
                        lw = disc[x]
                low[w] = lw
                stack.append(w)
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    if low[v] >= disc[p]:
                        if p == root:
                            children += 1
                        else:
                            cuts |= 1 << p
                    elif low[v] < low[p]:
                        low[p] = low[v]
        if children >= 2:
            cuts |= 1 << root
        elif not children:
            isolated |= 1 << root
    if comps >= 3:
        return keep
    if comps == 2:
        return keep & ~isolated
    return cuts


def _dense(n: int, min_degree: int) -> bool:
    """Whether every simple graph on n vertices with this minimum degree
    is triconnected: n >= 4 and 2 * min_degree > n.

    Delete any two vertices {a, b}.  Two non-adjacent survivors keep at
    least 2 * min_degree - 4 >= n - 3 edges between them into the other
    n - 4 survivors, so they share a neighbour; the survivors are
    connected.  Deleting one vertex or none is the same argument with more
    room.  K4, K5, W4 and the octahedron pass, K3,3, the prism and the
    cube do not.
    """
    return n >= 4 and 2 * min_degree > n


def connectivity_class(g: SimpleGraph) -> int:
    """1, 2 or 3 (capped): highest k <= 3 such that g is k-connected."""
    if not is_connected(g):
        raise GraphError("connectivity_class requires a connected graph")
    if g.n < 3:
        return 1
    if _dense(g.n, min(g.degrees())):
        return 3
    full = (1 << g.n) - 1
    if _cut_vertices(g.adj, full):
        return 1
    for u in range(g.n):
        if _cut_vertices(g.adj, full ^ (1 << u)):
            return 2
    return 3


def separation_pairs(g: SimpleGraph) -> list[tuple[int, int]]:
    """All vertex pairs whose deletion (with incident edges) disconnects g."""
    full = (1 << g.n) - 1
    pairs = []
    for u in range(g.n):
        cuts = _cut_vertices(g.adj, full ^ (1 << u))
        pairs += [(u, v) for v in range(u + 1, g.n) if cuts >> v & 1]
    return pairs


# ---------------------------------------------------------------------------
# decomposition internals


def _vertices(mask: int) -> list[int]:
    """The vertices in a bitmask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _decompose(
    edges: list[_PartEdge],
    verts: int,
    adj: list[int],
    first: int,
    first_cuts: int | None,
    next_vid: list[int],
    out_nodes: list[tuple[str, list[_PartEdge], int]],
) -> None:
    """Split the part `edges`, on the vertex bitmask `verts`, into S, P and
    R skeleta, appended to out_nodes.

    `adj[x]` is the neighbour bitmask of x within the part for each x in
    `verts`; other entries are never read.  `first_cuts`, if given, is the
    cut-vertex mask of the part minus `first`.

    Every part is simple and has at least 3 vertices.  The input graph is,
    and a split component at the pair (u, v) is a component of the part
    minus {u, v} with u and v added back, so it has at least 3 vertices,
    and its only u-v edge is its new virtual edge: the part has at most one
    u-v edge, and that one goes to the hub P node.

    So every P node is a hub, and no two P nodes are adjacent.  A hub's
    virtual edge is twinned with its copy in a split component, and that
    copy ends in an S or an R node: it could only join a hub at a later
    split at the same pair (u, v), and {u, v} separates no part within the
    component, since by the argument below it would then separate the
    component, whose vertices other than u and v are connected.

    The part has no separation pair {a, b}, a < b, with a < first, so the
    scan for the least pair starts at `first`.  A split component at the
    least pair (u, v) gets first = u.  Deleting a separation pair {a, b}
    of the component leaves a piece Y that avoids u and v (the virtual edge
    keeps whichever of them remain together), so Y lies among the
    component's inner vertices, whose edges all belong to the component,
    and {a, b} cuts Y off in the part too; a < u would contradict the scan
    that found (u, v).

    The component C = comp + {u, v} also inherits its first cut mask, so
    its scan starts without a lowpoint pass: cuts(C - u) = cuts(P - u) &
    comp for the part P.  C - u is comp + {v} with the same edges as in
    P - u.  Deleting x in comp from P - u leaves the pieces of C - u - x,
    with the rest of P - u hanging from v, since P - u is connected; so x
    is a cut vertex of both or of neither.  v is one of P - u but not of
    C - u, whose deletion leaves the connected comp.  Each component's
    bitmasks come from the part's: comp's vertices keep theirs, and u and
    v keep their neighbours in comp and gain each other.

    A part that is not a cycle and passes `_dense` is an R node with no
    scan; a triangle is a cycle.
    """
    n = verts.bit_count()
    if len(edges) == n:
        # biconnected with as many edges as vertices: a cycle
        out_nodes.append(("S", edges, verts))
        return
    # 2 * min_degree > n needs 4 * len(edges) > n * n
    if 4 * len(edges) > n * n and _dense(
        n, min(adj[x].bit_count() for x in _vertices(verts))
    ):
        out_nodes.append(("R", edges, verts))
        return

    # the least separation pair (u, v), u < v, is the first u such that the
    # part minus u has a cut vertex v > u, with the least v
    cuts = first_cuts
    rest = verts >> first << first
    while rest:
        u = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if cuts is None:
            cuts = _cut_vertices(adj, verts ^ (1 << u))
        later = cuts >> (u + 1)
        if later:
            v = u + (later & -later).bit_length()
            break
        cuts = None
    else:
        out_nodes.append(("R", edges, verts))
        return

    pair = 1 << u | 1 << v
    comps = mask_components(adj, verts & ~pair)
    # the edges of each component of the part minus {u, v}, by least
    # vertex, in one pass; an edge with no end in a component joins u and v
    where = [-1] * len(adj)
    for i, comp in enumerate(comps):
        for x in _vertices(comp):
            where[x] = i
    classes: list[list[_PartEdge]] = [[] for _ in comps]
    direct: list[_PartEdge] = []
    for e in edges:
        i = where[e[0]]
        if i < 0:
            i = where[e[1]]
        if i < 0:
            direct.append(e)
        else:
            classes[i].append(e)

    def split_off(cls: list[_PartEdge], comp: int, vid: int) -> None:
        child = adj.copy()
        child[u] = adj[u] & comp | 1 << v
        child[v] = adj[v] & comp | 1 << u
        _decompose(
            cls + [(u, v, vid)],
            comp | pair,
            child,
            u,
            cuts & comp,
            next_vid,
            out_nodes,
        )

    if len(comps) == 2 and not direct:
        vid = next_vid[0]
        next_vid[0] += 1
        for cls, comp in zip(classes, comps):
            split_off(cls, comp, vid)
        return

    hub: list[_PartEdge] = direct
    for cls, comp in zip(classes, comps):
        vid = next_vid[0]
        next_vid[0] += 1
        hub.append((u, v, vid))
        split_off(cls, comp, vid)
    out_nodes.append(("P", hub, pair))


def _fuse(parts: list[tuple[str, list[_PartEdge], int]]) -> list[tuple]:
    """The tree nodes as (kind, vertices, real edges, virtual edges), each
    list ascending: every group of S parts joined by virtual edges becomes
    one S node without the group's inner virtual edges.  No two P parts
    are adjacent (`_decompose`)."""
    owners: dict[int, list[int]] = {}
    for i, (_, edges, _) in enumerate(parts):
        for _, _, vid in edges:
            if vid is not None:
                owners.setdefault(vid, []).append(i)
    group = list(range(len(parts)))

    def find(x: int) -> int:
        while group[x] != x:
            group[x] = group[group[x]]
            x = group[x]
        return x

    inner = set()
    for vid, ends in sorted(owners.items()):
        if len(ends) != 2:
            raise SpqrError(f"virtual edge {vid} has {len(ends)} owners")
        a, b = ends
        if parts[a][0] == parts[b][0] == "S":
            inner.add(vid)
            group[find(a)] = find(b)

    merged: dict[int, list] = {}
    for i, (kind, edges, verts) in enumerate(parts):
        node = merged.setdefault(find(i), [kind, 0, [], []])
        node[1] |= verts
        for e in edges:
            if e[2] is None:
                node[2].append(e[:2])
            elif e[2] not in inner:
                node[3].append(e)
    return [
        (kind, _vertices(verts), sorted(reals), sorted(virtuals))
        for kind, verts, reals, virtuals in merged.values()
    ]


def spqr(g: SimpleGraph) -> SpqrTree:
    """The unique SPQR tree of a biconnected graph with >= 3 vertices."""
    if g.n < 3:
        raise GraphError("SPQR tree needs at least 3 vertices")
    if _cut_vertices(g.adj, (1 << g.n) - 1):
        if not is_connected(g):
            raise GraphError("SPQR tree requires a connected graph")
        raise GraphError("SPQR tree requires a biconnected graph")

    parts: list[tuple[str, list[_PartEdge], int]] = []
    edges: list[_PartEdge] = [(u, v, None) for u, v in g.edges]
    _decompose(edges, (1 << g.n) - 1, list(g.adj), 0, None, [0], parts)
    # deterministic node order: kind, vertices, real edges, virtual-edge
    # endpoints
    raw = sorted(
        _fuse(parts), key=lambda node: (*node[:3], [e[:2] for e in node[3]])
    )

    # locate twins
    owner: dict[int, list[tuple[int, int]]] = {}
    for i, node in enumerate(raw):
        for j, e in enumerate(node[3]):
            owner.setdefault(e[2], []).append((i, j))

    nodes = []
    tree_edges = []
    for i, (kind, vertices, reals, virts) in enumerate(raw):
        virtuals = []
        for j, (u, v, vid) in enumerate(virts):
            pair = owner[vid]
            (oi, oj) = pair[0] if pair[1] == (i, j) else pair[1]
            virtuals.append(VirtualEdge(endpoints=(u, v), twin_node=oi, twin_index=oj))
            if i < oi:
                tree_edges.append((i, oi))
        nodes.append(SpqrNode(i, kind, frozenset(vertices), tuple(reals), tuple(virtuals)))
    return SpqrTree(graph=g, nodes=tuple(nodes), tree_edges=tuple(sorted(tree_edges)))


def recompose(tree: SpqrTree) -> SimpleGraph:
    """Glue matching virtual edges and drop them; inverse of spqr up to labels."""
    verts: set[int] = set()
    reals: list[tuple[int, int]] = []
    for node in tree.nodes:
        verts |= node.vertices
        for ve in node.virtual_edges:
            twin = tree.nodes[ve.twin_node]
            if ve.twin_index >= len(twin.virtual_edges):
                raise SpqrError("twin index out of range")
            back = twin.virtual_edges[ve.twin_index]
            if back.twin_node != node.id or back.endpoints != ve.endpoints:
                raise SpqrError(
                    f"twin mismatch between nodes {node.id} and {ve.twin_node}"
                )
        reals.extend(node.real_edges)
    relabel = {v: i for i, v in enumerate(sorted(verts))}
    if len(set(reals)) != len(reals):
        raise SpqrError("real edges do not partition: duplicate edge")
    return build_graph(len(verts), [(relabel[u], relabel[v]) for u, v in reals])


def r_edge_weight(tree: SpqrTree) -> int:
    """Real edges inside R-node skeleta: the filtration level of the graph."""
    return sum(len(n.real_edges) for n in tree.nodes if n.kind == "R")


def edge_owner(tree: SpqrTree, e: int) -> tuple[int, str]:
    pair = tree.graph.edges[e]
    for node in tree.nodes:
        if pair in node.real_edges:
            return node.id, node.kind
    raise SpqrError(f"edge {pair} not owned by any node")


def contraction_case(tree: SpqrTree, e: int) -> str:
    """Predicted effect of contracting real edge e on the tree/filtration.

    P-kill: result not biconnected; S-shrink: cycle shortens in place;
    S-merge: triangle S node disappears; R-local: filtration level drops.
    """
    node_id, kind = edge_owner(tree, e)
    if kind == "P":
        return "P-kill"
    if kind == "R":
        return "R-local"
    if len(tree.nodes[node_id].vertices) >= 4:
        return "S-shrink"
    return "S-merge"


def contraction_case_failures(
    samples: Sequence[SimpleGraph],
) -> tuple[int, list[tuple[SimpleGraph, int, str]]]:
    """Check every predicted contraction case of each biconnected sample
    against its recomputed simple contraction: P-kill must leave the image
    not biconnected; R-local must leave it biconnected with a lower
    r_edge_weight, S-shrink and S-merge with the same one; any other label
    fails.  Returns the number of contractions checked and the (sample,
    edge position, predicted case) of each failure."""
    checked = 0
    failures = []
    for g in samples:
        tree = spqr(g)
        weight = r_edge_weight(tree)
        for j in range(g.k):
            case = contraction_case(tree, j)
            image = contract_edge(g, j)
            if isinstance(image, NonSimple):
                continue
            checked += 1
            if connectivity_class(image) < 2:
                good = case == "P-kill"
            elif case == "R-local":
                good = r_edge_weight(spqr(image)) < weight
            elif case in ("S-shrink", "S-merge"):
                good = r_edge_weight(spqr(image)) == weight
            else:
                good = False
            if not good:
                failures.append((g, j, case))
    return checked, failures


def roundtrip_failures(samples: Sequence[SimpleGraph]) -> list[SimpleGraph]:
    """The biconnected samples whose SPQR tree does not recompose to a graph
    isomorphic to the sample."""
    return [
        g for g in samples
        if canonical_form(recompose(spqr(g))).canon_key != canonical_form(g).canon_key
    ]


def tree_to_json(tree: SpqrTree) -> str:
    doc = {
        "graph": {"vertices": tree.graph.n, "edges": [list(e) for e in tree.graph.edges]},
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "skeleton_vertices": sorted(n.vertices),
                "real_edges": [list(e) for e in n.real_edges],
                "virtual_edges": [
                    {
                        "endpoints": list(v.endpoints),
                        "twin": [v.twin_node, v.twin_index],
                    }
                    for v in n.virtual_edges
                ],
            }
            for n in tree.nodes
        ],
        "tree_edges": [list(e) for e in tree.tree_edges],
    }
    return json.dumps(doc, indent=2)
