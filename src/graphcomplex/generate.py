"""Isomorph-free generation of connected simple graphs with min valence 3.

Edge-augmentation search with the canonical-deletion rule: a child graph is
accepted only if the edge just added lies in the automorphism orbit of the
child's canonical deletion edge.  Each isomorphism class of each admissible
intermediate graph is visited exactly once.

`generate` runs this search for one grade.  `graded_classes` runs it only
for the cubic grade of a loop order and builds every lower grade as the
simple edge contractions of the grade above.

The canonical deletion edge is chosen among the edges with the least pair
of endpoint degrees (smaller degree first), and among those it is the one
the canonical relabeling puts last.  The degree pair is an isomorphism
invariant that needs no canonization, so a child whose new edge does not
have the least pair is rejected before `canonical_form` is called (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .canon import CanonicalClass, _orbit_roots, canonical_form
from .connectivity import connectivity_class
from .graphs import (
    NonSimple,
    SimpleGraph,
    build_graph,
    component_masks,
    contract_edge,
    graph6_decode,
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


def _edge_orbit_roots(
    items: Sequence[tuple[int, int]], gens: tuple[tuple[int, ...], ...]
) -> list[int]:
    """For each vertex pair in `items`, the least index of its orbit under
    the given vertex permutations, which map `items` onto itself."""
    index = {e: i for i, e in enumerate(items)}
    perms = []
    for g in gens:
        perm = []
        for u, v in items:
            u, v = g[u], g[v]
            perm.append(index[(u, v) if u < v else (v, u)])
        perms.append(perm)
    return _orbit_roots(len(items), perms)


def _edge_orbit_reps(
    items: list[tuple[int, int]], gens: tuple[tuple[int, ...], ...]
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
            child = build_graph(r, list(g.edges) + [(u, v)])
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


@lru_cache(maxsize=16)
def graded_classes(g: int) -> Mapping[int, ClassKeys]:
    """generate(r, g + r - 1) for every grade r of loop order g, ascending.

    Only the cubic grade r = 2g - 2 is searched.  A simple contraction keeps
    a graph connected and at least trivalent, and splitting a vertex of
    valence d >= 4 into valences 3 and d - 1 undoes one, so each lower grade
    is the set of contractions of the grade above, orientation-zero classes
    of that grade included."""
    rs = grade_range(g)
    if not rs:
        return MappingProxyType({})
    classes = {rs[-1]: generate(rs[-1], g + rs[-1] - 1)}
    for r in reversed(rs[:-1]):
        classes[r] = _contraction_classes(classes[r + 1])
    return MappingProxyType(dict(sorted(classes.items())))


_THRESHOLD = {"full": 1, "biconnected": 2, "triconnected": 3}


@dataclass(frozen=True)
class Basis:
    """Deterministic ordered basis of one graded piece of one variant."""

    loop_order: int
    vertex_count: int
    variant: str
    keys: tuple[bytes, ...]
    index: dict[bytes, int]

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
