"""Labeled simple graphs, graph surgery, and graph6 I/O.

A graph is stored with an explicit edge sequence; the position of an edge
in that sequence is the orientation datum carried through all surgery
operations.  All values are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    """Invalid graph construction or malformed input."""


class NonSimple:
    """Marker: an edge contraction would create a parallel edge."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NonSimple"


class AlreadyAdjacent:
    """Marker: the requested edge is already present."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "AlreadyAdjacent"


NON_SIMPLE = NonSimple()
ALREADY_ADJACENT = AlreadyAdjacent()


class SimpleGraph(NamedTuple):
    """Simple graph on vertices 0..n-1 with an ordered edge sequence.

    ``edges[i] = (u, v)`` with ``u < v``; the sequence order is the
    orientation.  ``adj[v]`` is the neighbor bitset of vertex ``v``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={list(self.edges)})"


def build_graph(vertex_count: int, edge_list: Iterable[Sequence[int]]) -> SimpleGraph:
    """Normalize and validate an edge list into a SimpleGraph.

    Pairs may arrive unsorted; per-pair sorting does not count as an
    orientation change.  Rejects self-edges, duplicates, and out-of-range
    labels.  This is the constructor for graphs from outside the program;
    surgery on a valid graph uses ``trusted_graph``.
    """
    if vertex_count < 0:
        raise GraphError(f"negative vertex count {vertex_count}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise GraphError(f"self-edge at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return trusted_graph(vertex_count, edges)


def trusted_graph(vertex_count: int, edge_list: Iterable[tuple[int, int]]) -> SimpleGraph:
    """The SimpleGraph of an edge list that is already known to be simple
    and in range, as the program's own surgery on a valid graph produces;
    pairs may arrive unsorted, as in ``build_graph``, but nothing is
    checked."""
    edges = []
    adj = [0] * vertex_count
    for u, v in edge_list:
        if u > v:
            u, v = v, u
        edges.append((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SimpleGraph(vertex_count, tuple(edges), tuple(adj))


def complete_graph(n: int) -> SimpleGraph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def contract_edge(g: SimpleGraph, e: int) -> SimpleGraph | NonSimple:
    """Contract edge ``e``; returns NON_SIMPLE if its endpoints share a neighbor.

    The merged vertex keeps the lower label; labels above the removed vertex
    shift down.  The edge ordering is inherited with ``e`` removed.
    """
    u, v = g.edges[e]
    if g.adj[u] & g.adj[v]:
        return NON_SIMPLE

    def remap(w: int) -> int:
        if w == v:
            w = u
        return w - 1 if w > v else w

    edges = []
    for i, (a, b) in enumerate(g.edges):
        if i == e:
            continue
        a, b = remap(a), remap(b)
        edges.append((a, b))
    return trusted_graph(g.n - 1, edges)


def add_edge(g: SimpleGraph, u: int, v: int) -> SimpleGraph | AlreadyAdjacent:
    """Insert edge (u,v) at the FRONT of the orientation ordering."""
    if u == v:
        raise GraphError(f"self-edge at vertex {u}")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"edge ({u},{v}) out of range for {g.n} vertices")
    if g.has_edge(u, v):
        return ALREADY_ADJACENT
    return trusted_graph(g.n, [(u, v)] + list(g.edges))


def split_vertex(g: SimpleGraph, v: int, moved_positions: Iterable[int]) -> SimpleGraph:
    """Split vertex v: the edges at ``moved_positions`` move their v end to a
    new vertex g.n, joined to v by a new FIRST edge; the other edges keep
    their order after it."""
    w = g.n
    moved = set(moved_positions)
    edges = [(v, w)]
    for i, (a, b) in enumerate(g.edges):
        if i in moved:
            a, b = (w if a == v else a), (w if b == v else b)
        edges.append((a, b))
    return trusted_graph(g.n + 1, edges)


def component_masks(g: SimpleGraph) -> list[int]:
    """Vertex bitsets of the connected components, by least vertex."""
    return mask_components(g.adj, (1 << g.n) - 1)


def mask_components(adj: Sequence[int], keep: int) -> list[int]:
    """Vertex bitsets of the components of the subgraph induced on the
    bitset `keep`, by least vertex; ``adj[v]`` is v's neighbor bitset."""
    unseen = keep
    masks = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= adj[v]
            frontier = nxt & unseen & ~comp
            comp |= frontier
        masks.append(comp)
        unseen &= ~comp
    return masks


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    return len(component_masks(g)) == 1


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as a list of distinct sortable items.

    The sorting permutation (an argsort) has the same parity, which is that
    of its length minus its number of cycles."""
    order = sorted(range(len(perm)), key=perm.__getitem__)
    parity = len(order)
    seen = [False] * len(order)
    for i in range(len(order)):
        if not seen[i]:
            parity -= 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = order[j]
    return -1 if parity & 1 else 1


# ---------------------------------------------------------------------------
# graph6 (short form, <= 62 vertices)

GRAPH6_MAX_VERTICES = 62


def graph6_encode(g: SimpleGraph) -> bytes:
    n = g.n
    return graph6_from_rows(n, [int(f"{a:0{n}b}"[::-1], 2) for a in g.adj])


def graph6_from_rows(n: int, rows: Sequence[int]) -> bytes:
    """graph6 of the graph on n vertices whose adjacency matrix has the
    rows ``rows``, each an integer with column 0 as its most significant
    of n bits."""
    if n > GRAPH6_MAX_VERTICES:
        raise GraphError(
            f"graph6 short form supports at most {GRAPH6_MAX_VERTICES} vertices"
        )
    # the upper triangle column by column: column j's entries above the
    # diagonal are the top j bits of row j
    bits = 0
    for j in range(1, n):
        bits = bits << j | rows[j] >> (n - j)
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits <<= pad
    return bytes([63 + n] + [63 + (bits >> s & 63) for s in range(nbits + pad - 6, -1, -6)])


def graph6_decode(data: bytes | str) -> SimpleGraph:
    """Decode short-form graph6; edges come out in lexicographic order."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise GraphError("empty graph6 string")
    n = data[0] - 63
    if not (0 <= n <= GRAPH6_MAX_VERTICES):
        raise GraphError(f"unsupported graph6 vertex byte {data[0]}")
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise GraphError(f"graph6 length mismatch: expected {need} body bytes, got {len(body)}")
    bits = []
    for byte in body:
        x = byte - 63
        if not (0 <= x < 64):
            raise GraphError(f"graph6 byte {byte} out of range")
        bits.extend((x >> s & 1) for s in range(5, -1, -1))
    pairs = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                pairs.append((i, j))
            idx += 1
    pairs.sort()
    return build_graph(n, pairs)
