"""Seeded input generators.  Stdlib only; graphcomplex is not imported, so
the program under test sees nothing but the graph6 strings made here."""

from __future__ import annotations

import random

from oracle import g6_encode, has_odd_automorphism, is_biconnected, isomorphisms

COHOMOLOGY_LOOP_ORDER = 5


def _relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# -- operators: biconnected >=3-valent classes on 7 vertices -----------------


def _min3_graph(rng: random.Random, n: int, k: int):
    """One random simple graph with n vertices, k edges, minimum degree 3,
    grown by joining low-degree vertices first; None when a draw fails."""
    adj = [set() for _ in range(n)]
    for _ in range(k):
        low = [v for v in range(n) if len(adj[v]) < 3]
        u = rng.choice(low) if low else rng.randrange(n)
        cand = [v for v in range(n) if v != u and v not in adj[u]]
        if not cand:
            return None
        low_cand = [v for v in cand if len(adj[v]) < 3]
        v = rng.choice(low_cand or cand)
        adj[u].add(v)
        adj[v].add(u)
    if min(len(a) for a in adj) < 3:
        return None
    return sorted((u, v) for u in range(n) for v in adj[u] if u < v)


def operator_samples(seed: int, strata, max_draws: int = 20000) -> list[str]:
    """``strata`` is a list of (n, k, count): draw ``count`` pairwise
    non-isomorphic biconnected classes with n vertices and k edges that
    are not zero classes, each in a random labeling."""
    rng = random.Random(seed)
    out = []
    for n, k, count in strata:
        found: list[list[tuple[int, int]]] = []
        draws = 0
        while len(found) < count:
            draws += 1
            if draws > max_draws:
                raise RuntimeError(f"found only {len(found)} classes for {(n, k)}")
            edges = _min3_graph(rng, n, k)
            if edges is None or not is_biconnected(n, edges):
                continue
            if has_odd_automorphism(n, edges):
                continue
            if any(next(isomorphisms(n, edges, f), None) for f in found):
                continue
            found.append(edges)
        out += [g6_encode(n, _relabel(rng, n, e)) for e in found]
    rng.shuffle(out)
    return out


# -- spqr: triconnected pieces glued along edges ------------------------------


def _wheel(m):
    return m + 1, [(0, i) for i in range(1, m + 1)] + [
        (min(i, i % m + 1), max(i, i % m + 1)) for i in range(1, m + 1)
    ]


def _prism(m):
    cyc = [(i, (i + 1) % m) for i in range(m)]
    edges = cyc + [(m + a, m + b) for a, b in cyc] + [(i, m + i) for i in range(m)]
    return 2 * m, [(min(a, b), max(a, b)) for a, b in edges]


def _complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


PIECES = (
    _complete(4),
    _complete(5),
    _wheel(4),
    _wheel(5),
    _wheel(6),
    _prism(3),
    _prism(4),
    (6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K_{3,3}
    (6, [e for e in _complete(6)[1] if e not in ((0, 1), (2, 3), (4, 5))]),  # octahedron
    (8, [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]),  # cube
)

GLUE_MODES = ("sum", "sum_keep_edge", "series_one_link", "series_two_links")


def glued_graph(rng: random.Random, pieces: int):
    """A biconnected, not triconnected, >=3-valent graph whose SPQR tree has
    exactly ``pieces`` R nodes: each new triconnected piece is attached at a
    random edge of the graph so far by a 2-sum (dropping or keeping that
    edge) or in series with one or two real link edges."""
    n, edges = rng.choice(PIECES)
    edges = list(edges)
    for _ in range(pieces - 1):
        h, h_edges = rng.choice(PIECES)
        u, v = rng.choice(edges)
        a, b = rng.choice(h_edges)
        if rng.random() < 0.5:
            a, b = b, a
        mode = rng.choice(GLUE_MODES)
        label = {}
        if mode in ("sum", "sum_keep_edge"):
            label = {a: u, b: v}
        elif mode == "series_one_link":
            label = {a: u}
        for x in range(h):
            if x not in label:
                label[x] = n
                n += 1
        if mode != "sum_keep_edge":
            edges.remove((u, v))
        edges += [
            (min(label[x], label[y]), max(label[x], label[y]))
            for x, y in h_edges
            if {x, y} != {a, b}
        ]
        if mode == "series_one_link":
            edges.append((min(label[b], v), max(label[b], v)))
        elif mode == "series_two_links":
            edges.append((min(u, label[a]), max(u, label[a])))
            edges.append((min(label[b], v), max(label[b], v)))
    return n, _relabel(rng, n, edges)


def spqr_samples(seed: int, per_size: int, sizes=range(10, 21)):
    """``per_size`` glued graphs on each vertex count in ``sizes``, as
    (graph6, R-node count, leaf-shuffle seed), in a seeded order.  Fixing
    the count per size keeps the work of a run nearly independent of the
    seed: the program's SPQR search grows steeply with the vertex count."""
    rng = random.Random(seed)
    out = []
    for size in sizes:
        found = 0
        while found < per_size:
            pieces = rng.randint(2, 4)
            n, edges = glued_graph(rng, pieces)
            if n == size:
                out.append((g6_encode(n, edges), pieces, rng.randrange(2**31)))
                found += 1
    rng.shuffle(out)
    return out
