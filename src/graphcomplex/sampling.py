"""Seeded random graph samples for property sweeps.

Two sources: rejection sampling of arbitrary biconnected graphs (for
SPQR round-trips) and the enumerated bases (for >=3-valent biconnected
or biconnected-not-triconnected samples, where rejection would be
hopelessly inefficient).
"""

from __future__ import annotations

import random

from .connectivity import connectivity_class
from .generate import graded_classes
from .graphs import SimpleGraph, build_graph, graph6_decode, is_connected


def random_biconnected(
    rng: random.Random, min_vertices: int = 4, max_vertices: int = 10
) -> SimpleGraph:
    """One biconnected graph by rejection from the Erdos-Renyi model."""
    while True:
        n = rng.randint(min_vertices, max_vertices)
        p = rng.uniform(0.3, 0.8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if len(edges) < n:
            continue
        rng.shuffle(edges)
        g = build_graph(n, edges)
        if not is_connected(g):
            continue
        if connectivity_class(g) >= 2:
            return g


def biconnected_samples(
    count: int, seed: int, min_vertices: int = 4, max_vertices: int = 10
) -> list[SimpleGraph]:
    rng = random.Random(seed)
    return [
        random_biconnected(rng, min_vertices, max_vertices) for _ in range(count)
    ]


def nontri_pool(max_loops: int = 6) -> list[bytes]:
    """All biconnected-not-triconnected >=3-valent classes, loop order
    3..max_loops (the admissible inputs of the filtration homotopy).

    Orientation-zero classes are kept: the homotopy acts on labeled
    graphs, where they are legitimate inputs.
    """
    pool = []
    for g in range(3, max_loops + 1):
        for classes in graded_classes(g).values():
            pool += [k for k in classes if connectivity_class(graph6_decode(k)) == 2]
    return sorted(pool)


def nontri_samples(count: int, seed: int, max_loops: int = 6) -> list[SimpleGraph]:
    """Seeded biconnected non-triconnected >=3-valent graphs, drawn (with
    replacement beyond the pool size) from the enumerated classes."""
    pool = nontri_pool(max_loops)
    if not pool:
        raise ValueError("empty sample pool")
    rng = random.Random(seed)
    return [graph6_decode(rng.choice(pool)) for _ in range(count)]
