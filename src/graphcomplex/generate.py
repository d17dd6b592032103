"""Isomorph-free generation of connected simple graphs with min valence 3.

Edge-augmentation search with the canonical-deletion rule: a child graph is
accepted only if the edge just added lies in the automorphism orbit of the
child's canonical deletion edge.  Each isomorphism class of each admissible
intermediate graph is visited exactly once.

`generate` runs this search for one grade.  `graded_classes` builds the
cubic grade of a loop order without it (below) and every lower grade as the
simple edge contractions of the grade above.

The canonical deletion edge is chosen among the edges with the least pair
of endpoint degrees (smaller degree first), and among those it is the one
the canonical relabeling puts last.  The degree pair is an isomorphism
invariant that needs no canonization, so a child whose new edge does not
have the least pair is rejected before `canonical_form` is called (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

The connected simple cubic graphs on n vertices are built bottom-up from
K4, after Brinkmann ("Fast generation of cubic graphs", J. Graph Theory 23,
1996), as the canonical classes of three kinds of children:

- E, on a class of n - 2 vertices: subdivide two distinct edges and join
  the two new vertices;
- D, on a class of n - 4 vertices: replace an edge uw by a diamond (K4
  minus an edge) whose two valence-2 vertices take u and w;
- B, on two classes of n1 + n2 = n - 2 vertices: subdivide one edge in
  each and join the two new vertices.

E and D take one edge pair or edge per orbit of the class's automorphism
generators; duplicates are removed by canonical key.  The three are enough.
Undoing E at an edge xy means removing it and suppressing x and y (joining
each one's two other neighbours); that is simple and connected when xy is
no bridge, neither x nor y has its other two neighbours adjacent, and the
two new edges differ.  Let G be connected simple cubic and not K4.

- Without triangles and bridges, E can be undone at every edge: a double
  edge or a joined neighbour pair would close a triangle.
- A bridge xy with neither end in a triangle undoes B: removing it and
  suppressing x and y leaves two simple cubic graphs.
- A triangle abc whose outer neighbours a', b', c' are distinct undoes E at
  bc: a is joined to b' and c', neither a neighbour of a before.
- Otherwise two outer neighbours of a triangle agree, and it lies in a
  diamond with valence-2 ends a, d and outer neighbours u of a and w of d.
  If u and w are distinct and not adjacent, replacing the diamond by the
  edge uw undoes D.  If they are adjacent, E can be undone at uw: it lies
  on the cycle u a b d w, and a and d have all their other neighbours
  inside the diamond.  If u = w, its third edge ut is a bridge and u lies
  in no triangle.  If t lies in none either, this bridge undoes B.  If it
  does, u is t's outer neighbour there and is adjacent to neither other
  vertex, whose neighbours are not a, d or t.  So the triangle's outer
  neighbours are distinct (undo E), or it lies in a second diamond with
  end t whose other end has an outer neighbour w' that is neither u nor
  adjacent to u (undo D).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .canon import CanonicalClass, _orbit_roots, canonical_form
from .connectivity import connectivity_class
from .graphs import (
    NonSimple,
    SimpleGraph,
    build_graph,
    complete_graph,
    component_masks,
    contract_edge,
    graph6_decode,
    trusted_graph,
)


class ClassKeys(frozenset):
    """Canonical keys of the classes of one grade; ``zero`` is the subset of
    orientation-zero classes, kept from the canonical forms that found them."""

    __slots__ = ("zero",)

    def __new__(cls, keys: Iterable[bytes] = (), zero: Iterable[bytes] = ()):
        self = super().__new__(cls, keys)
        self.zero = frozenset(zero)
        return self


def _deficiency(g: SimpleGraph) -> int:
    return sum(max(0, 3 - d) for d in g.degrees())


def _feasible(g: SimpleGraph, k: int) -> bool:
    """Can g still be completed to a connected min-valence-3 graph with k edges?

    Both bounds are monotone under edge deletion, so they are safe prunes
    for the canonical-deletion search.
    """
    rem = k - g.k
    if rem < 0:
        return False
    if _deficiency(g) > 2 * rem:
        return False
    if len(component_masks(g)) - 1 > rem:
        return False
    return True


def _pair_perms(
    items: Sequence[tuple[int, int]], gens: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The permutations of the index set of `items`, a sequence of ordered
    pairs a < b, that the given permutations induce; they must map `items`
    onto itself."""
    index = {e: i for i, e in enumerate(items)}
    perms = []
    for g in gens:
        perm = []
        for u, v in items:
            u, v = g[u], g[v]
            perm.append(index[(u, v) if u < v else (v, u)])
        perms.append(perm)
    return perms


def _edge_orbit_roots(
    items: Sequence[tuple[int, int]], gens: Sequence[Sequence[int]]
) -> list[int]:
    """For each pair in `items`, the least index of its orbit under the
    given permutations, which map `items` onto itself."""
    return _orbit_roots(len(items), _pair_perms(items, gens))


def _edge_orbit_reps(
    items: list[tuple[int, int]], gens: Sequence[Sequence[int]]
) -> list[tuple[int, int]]:
    """One representative per orbit of vertex pairs under the given perms."""
    if not gens:
        return items
    roots = _edge_orbit_roots(items, gens)
    return [e for i, e in enumerate(items) if roots[i] == i]


def _degree_pair(deg: list[int], u: int, v: int) -> tuple[int, int]:
    return (deg[u], deg[v]) if deg[u] < deg[v] else (deg[v], deg[u])


def _has_least_degree_pair(
    deg: list[int], edges: tuple[tuple[int, int], ...], u: int, v: int
) -> bool:
    """Whether the non-edge (u, v), once added to the graph with degrees
    `deg` and edge list `edges`, has the least endpoint-degree pair of all
    the child's edges, as the canonical deletion edge must."""
    deg = list(deg)
    deg[u] += 1
    deg[v] += 1
    mine = _degree_pair(deg, u, v)
    return all(_degree_pair(deg, a, b) >= mine for a, b in edges)


def _canonical_deletion_ok(
    child: SimpleGraph, cf: CanonicalClass, new_edge: tuple[int, int]
) -> bool:
    """True iff new_edge is Aut-equivalent to the canonical deletion edge:
    of the edges with the least endpoint-degree pair, the one whose
    canonically relabeled pair is greatest."""
    deg = child.degrees()
    least = min(_degree_pair(deg, u, v) for u, v in child.edges)
    perm = cf.relabel
    best_pair = None
    best_edge = None
    for u, v in child.edges:
        if _degree_pair(deg, u, v) != least:
            continue
        a, b = perm[u], perm[v]
        pair = (a, b) if a < b else (b, a)
        if best_pair is None or pair > best_pair:
            best_pair = pair
            best_edge = (u, v)
    if best_edge == new_edge:
        return True
    if not cf.aut_generators:
        return False
    edges = child.edges
    roots = _edge_orbit_roots(edges, cf.aut_generators)
    return roots[edges.index(best_edge)] == roots[edges.index(new_edge)]


@lru_cache(maxsize=256)
def generate(r: int, k: int) -> ClassKeys:
    """Canonical keys of all connected simple graphs, r vertices, k edges,
    every vertex at least trivalent.  Orientation-zero classes included,
    and listed in ``.zero``."""
    if r < 1 or k < 0:
        return ClassKeys()
    out: set[bytes] = set()
    zero: set[bytes] = set()
    root = build_graph(r, [])
    if not _feasible(root, k):
        return ClassKeys()

    def recurse(g: SimpleGraph, cf: CanonicalClass) -> None:
        if g.k == k:
            if min(g.degrees(), default=3) >= 3 and len(component_masks(g)) == 1:
                out.add(cf.canon_key)
                if cf.is_zero:
                    zero.add(cf.canon_key)
            return
        deg = g.degrees()
        nonedges = [
            (u, v)
            for u in range(r)
            for v in range(u + 1, r)
            if not g.adj[u] >> v & 1
        ]
        for u, v in _edge_orbit_reps(nonedges, cf.aut_generators):
            if not _has_least_degree_pair(deg, g.edges, u, v):
                continue
            child = trusted_graph(r, list(g.edges) + [(u, v)])
            if not _feasible(child, k):
                continue
            cfc = canonical_form(child)
            if _canonical_deletion_ok(child, cfc, (u, v)):
                recurse(child, cfc)

    recurse(root, canonical_form(root))
    return ClassKeys(out, zero)


def grade_range(g: int) -> range:
    """Vertex counts r that can carry loop-order-g basis graphs.

    Min valence 3 forces 2(g + r - 1) >= 3r, i.e. r <= 2(g - 1).
    """
    return range(2, 2 * (g - 1) + 1)


def _contraction_classes(classes: ClassKeys) -> ClassKeys:
    """Classes of the simple edge contractions of the given classes."""
    out: set[bytes] = set()
    zero: set[bytes] = set()
    for key in classes:
        graph = graph6_decode(key)
        for j in range(graph.k):
            image = contract_edge(graph, j)
            if isinstance(image, NonSimple):
                continue
            cf = canonical_form(image)
            out.add(cf.canon_key)
            if cf.is_zero:
                zero.add(cf.canon_key)
    return ClassKeys(out, zero)


def _insert_edge(
    n: int, edges: Sequence[tuple[int, int]], i: int, j: int
) -> SimpleGraph:
    """Subdivide edges i != j of a graph on n vertices by the new vertices n
    and n + 1, and join those two: E, or B on a disjoint union."""
    (a, b), (c, d) = edges[i], edges[j]
    rest = [e for pos, e in enumerate(edges) if pos != i and pos != j]
    return trusted_graph(
        n + 2, rest + [(a, n), (b, n), (c, n + 1), (d, n + 1), (n, n + 1)]
    )


def _insert_diamond(g: SimpleGraph, i: int) -> SimpleGraph:
    """D: replace edge i = (u, w) by the diamond on new vertices a, b, c, d
    without the edge ad, joined to the graph by ua and dw."""
    u, w = g.edges[i]
    a, b, c, d = range(g.n, g.n + 4)
    rest = [e for pos, e in enumerate(g.edges) if pos != i]
    return trusted_graph(
        g.n + 4, rest + [(u, a), (a, b), (a, c), (b, c), (b, d), (c, d), (d, w)]
    )


def _orbit_reps(n: int, perms: Sequence[Sequence[int]]) -> list[int]:
    roots = _orbit_roots(n, perms)
    return [i for i in range(n) if roots[i] == i]


def _cubic_classes(g: int) -> ClassKeys:
    """generate(2g - 2, 3g - 3): the connected simple cubic classes of loop
    order g, built from K4 by E, D and B (see the module docstring)."""
    # per grade, the first graph found of each class and the permutations
    # of its edge positions that its automorphism generators induce
    grades: dict[int, list[tuple[SimpleGraph, list[list[int]]]]] = {}
    keys: set[bytes] = set()
    zero: set[bytes] = set()
    for n in range(4, 2 * g - 1, 2):
        keys, zero, grade = set(), set(), []

        def add(child: SimpleGraph) -> None:
            cf = canonical_form(child)
            if cf.canon_key not in keys:
                keys.add(cf.canon_key)
                if cf.is_zero:
                    zero.add(cf.canon_key)
                grade.append((child, _pair_perms(child.edges, cf.aut_generators)))

        if n == 4:
            add(complete_graph(4))
        for graph, perms in grades.get(n - 2, ()):
            pairs = list(combinations(range(graph.k), 2))
            for i, j in _edge_orbit_reps(pairs, perms):
                add(_insert_edge(graph.n, graph.edges, i, j))
        for graph, perms in grades.get(n - 4, ()):
            for i in _orbit_reps(graph.k, perms):
                add(_insert_diamond(graph, i))
        for n1 in range(4, n // 2, 2):
            left, right = grades[n1], grades[n - 2 - n1]
            for pos, (g1, perms1) in enumerate(left):
                for g2, perms2 in right[pos:] if left is right else right:
                    union = g1.edges + tuple((u + g1.n, v + g1.n) for u, v in g2.edges)
                    for i in _orbit_reps(g1.k, perms1):
                        for j in _orbit_reps(g2.k, perms2):
                            add(_insert_edge(g1.n + g2.n, union, i, g1.k + j))
        grades[n] = grade
    return ClassKeys(keys, zero)


@lru_cache(maxsize=16)
def graded_classes(g: int) -> Mapping[int, ClassKeys]:
    """generate(r, g + r - 1) for every grade r of loop order g, ascending.

    The cubic grade r = 2g - 2 is built by `_cubic_classes`.  A simple
    contraction keeps a graph connected and at least trivalent, and
    splitting a vertex of valence d >= 4 into valences 3 and d - 1 undoes
    one, so each lower grade is the set of contractions of the grade above,
    orientation-zero classes of that grade included."""
    rs = grade_range(g)
    if not rs:
        return MappingProxyType({})
    classes = {rs[-1]: _cubic_classes(g)}
    for r in reversed(rs[:-1]):
        classes[r] = _contraction_classes(classes[r + 1])
    return MappingProxyType(dict(sorted(classes.items())))


_THRESHOLD = {"full": 1, "biconnected": 2, "triconnected": 3}


class Basis(NamedTuple):
    """Deterministic ordered basis of one graded piece of one variant."""

    loop_order: int
    vertex_count: int
    variant: str
    keys: tuple[bytes, ...]
    index: dict[bytes, int]

    # the basis size, not the field count, so `_make` and `_replace` fail
    def __len__(self) -> int:
        return len(self.keys)


def _basis(g: int, r: int, variant: str, classes: ClassKeys) -> Basis:
    """Basis of the (loop order g, r vertices) piece from its classes: drop
    orientation-zero classes, drop classes below the variant's
    connectivity threshold, sort lexicographically."""
    if variant not in _THRESHOLD:
        raise ValueError(f"unknown variant {variant!r}")
    threshold = _THRESHOLD[variant]
    keys = sorted(
        key
        for key in classes - classes.zero
        if threshold == 1 or connectivity_class(graph6_decode(key)) >= threshold
    )
    return Basis(
        loop_order=g,
        vertex_count=r,
        variant=variant,
        keys=tuple(keys),
        index={key: i for i, key in enumerate(keys)},
    )


def build_basis(g: int, r: int, variant: str = "full") -> Basis:
    """Basis of one graded piece, from a search of that grade alone."""
    return _basis(g, r, variant, generate(r, g + r - 1))


def graded_bases(g: int, variant: str = "full") -> dict[int, Basis]:
    """Basis of every grade of loop order g, ascending in r, from
    `graded_classes`; equal to `build_basis` grade by grade."""
    return {r: _basis(g, r, variant, c) for r, c in graded_classes(g).items()}


def basis_keys(max_loops: int, variant: str) -> list[bytes]:
    """The basis keys of every grade of loop orders 3..max_loops, the
    sample set of the identity suites: by loop order, then by grade."""
    return [
        key
        for g in range(3, max_loops + 1)
        for basis in graded_bases(g, variant).values()
        for key in basis.keys
    ]
