"""Canonical labeling with orientation signs and automorphism generators.

Individualization-refinement search over color-refined partitions, with
pruning by discovered automorphisms (orbit pruning against the prefix
stabilizer) and by a node-invariant trace.  The canonical representative
is the relabeling maximizing the leaf key (trace, adjacency certificate).

Supports an optional initial vertex coloring; isomorphisms are then
required to preserve colors.  This is used for leaf-labeled graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .graphs import (
    SimpleGraph,
    build_graph,
    graph6_decode,
    graph6_encode,
    permutation_sign,
)


@dataclass(frozen=True)
class CanonicalClass:
    """Canonical key of an isomorphism class plus orientation bookkeeping.

    ``sign_to_canon`` is the parity of the edge permutation taking the
    input edge ordering to the lexicographic order of the canonically
    relabeled graph; it is well-defined modulo automorphisms whenever
    ``is_zero`` is false.
    """

    canon_key: bytes
    sign_to_canon: int
    is_zero: bool
    aut_generators: tuple[tuple[int, ...], ...]
    relabel: tuple[int, ...]

    @property
    def canon_graph(self) -> SimpleGraph:
        """The canonically relabeled graph, edges in lexicographic order."""
        return graph6_decode(self.canon_key.split(b"#")[0])


def _refine(
    adj: tuple[int, ...], cells: list[list[int]], clean: list[bool]
) -> list[list[int]]:
    """Equitable refinement; cell order is isomorphism-invariant.

    ``clean[i]`` marks a cell that splits no cell, and stays true when other
    cells split, since a part of a stable cell is stable.  Each step splits
    the least cell that the least splitting cell splits, which is the order
    a full rescan after every split would give.  Both lists are updated in
    place."""
    si = 0
    while si < len(cells):
        if clean[si]:
            si += 1
            continue
        s_mask = 0
        for v in cells[si]:
            s_mask |= 1 << v
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            counts = [(adj[v] & s_mask).bit_count() for v in cell]
            if counts.count(counts[0]) == len(counts):
                continue
            groups: dict[int, list[int]] = {}
            for v, c in zip(cell, counts):
                groups.setdefault(c, []).append(v)
            cells[ci : ci + 1] = [groups[c] for c in sorted(groups)]
            clean[ci : ci + 1] = [False] * len(groups)
            si = min(si, ci)
            break
        else:
            clean[si] = True
            si += 1
    return cells


def _node_token(adj: tuple[int, ...], cells: list[list[int]]) -> tuple:
    """Isomorphism-invariant node descriptor: cell sizes + quotient counts."""
    masks = [sum(1 << v for v in cell) for cell in cells]
    sizes = tuple([len(c) for c in cells])
    quot = tuple([(adj[cell[0]] & m).bit_count() for cell in cells for m in masks])
    return (sizes, quot)


def _leaf_cert(adj: tuple[int, ...], order: list[int]) -> bytes:
    n = len(order)
    out = bytearray()
    acc = 0
    nb = 0
    for j in range(1, n):
        vj = order[j]
        for i in range(j):
            acc = acc << 1 | (adj[order[i]] >> vj & 1)
            nb += 1
            if nb == 8:
                out.append(acc)
                acc = nb = 0
    if nb:
        out.append(acc << (8 - nb))
    return bytes(out)


class _Search:
    """One canonical-labeling run; collects automorphism generators."""

    def __init__(self, n: int, adj: tuple[int, ...], colors: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self.colors = colors
        self.gens: list[tuple[int, ...]] = []
        self.cur_trace: list[tuple] = []
        self.first: tuple[tuple, bytes, list[int]] | None = None  # trace, cert, perm
        self.best: tuple[tuple, bytes, list[int]] | None = None

    def run(self) -> tuple[list[int], list[tuple[int, ...]]]:
        initial: dict[int, list[int]] = {}
        for v in range(self.n):
            initial.setdefault(self.colors[v], []).append(v)
        cells = [initial[c] for c in sorted(initial)]
        self._explore(cells, [False] * len(cells), (), 0, True, "eq")
        assert self.best is not None
        return self.best[2], self.gens

    def _record_aut(self, perm_a: Sequence[int], perm_b: Sequence[int]) -> None:
        # both map vertex -> canonical position; equal certificates mean the
        # two relabelings produce the same graph, so the quotient is an
        # automorphism
        inv_b = [0] * self.n
        for v, p in enumerate(perm_b):
            inv_b[p] = v
        sigma = tuple(inv_b[p] for p in perm_a)
        if any(sigma[v] != v for v in range(self.n)) and sigma not in self.gens:
            self.gens.append(sigma)

    def _prefix_orbits(self, prefix: tuple[int, ...]) -> list[int]:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gen in self.gens:
            if all(gen[v] == v for v in prefix):
                for v in range(self.n):
                    a, b = find(v), find(gen[v])
                    if a != b:
                        parent[a] = b
        return [find(v) for v in range(self.n)]

    def _explore(
        self,
        cells: list[list[int]],
        clean: list[bool],
        prefix: tuple[int, ...],
        depth: int,
        eq_first: bool,
        cmp_best: str,
    ) -> bool:
        """Returns True if self.best was (re)placed within this subtree."""
        cells = _refine(self.adj, cells, clean)
        token = _node_token(self.adj, cells)
        del self.cur_trace[depth:]
        self.cur_trace.append(token)

        if self.best is None:
            cmp_best = "gt"
        elif cmp_best == "eq":
            ref_trace = self.best[0]
            if depth >= len(ref_trace) or token > ref_trace[depth]:
                cmp_best = "gt"
            elif token < ref_trace[depth]:
                cmp_best = "lt"
        if eq_first and self.first is not None:
            f_trace = self.first[0]
            eq_first = depth < len(f_trace) and token == f_trace[depth]
        if cmp_best == "lt" and not (eq_first or self.first is None):
            return False

        target_idx = -1
        for i, c in enumerate(cells):
            if len(c) > 1:
                target_idx = i
                break

        if target_idx < 0:
            # leaf
            perm = [0] * self.n
            order = [c[0] for c in cells]
            for pos, v in enumerate(order):
                perm[v] = pos
            cert = _leaf_cert(self.adj, order)
            trace = tuple(self.cur_trace)

            if self.first is None:
                self.first = (trace, cert, perm)
            elif eq_first and cert == self.first[1]:
                self._record_aut(perm, self.first[2])

            if cmp_best == "gt" or self.best is None:
                self.best = (trace, cert, perm)
                return True
            if cmp_best == "eq":
                if cert > self.best[1]:
                    self.best = (trace, cert, perm)
                    return True
                if cert == self.best[1] and perm != self.best[2]:
                    self._record_aut(perm, self.best[2])
            return False

        target = cells[target_idx]
        replaced = False
        processed: list[int] = []
        n_gens_seen = -1
        orbit_id: list[int] = []
        for v in target:
            if processed:
                if len(self.gens) != n_gens_seen:
                    orbit_id = self._prefix_orbits(prefix)
                    n_gens_seen = len(self.gens)
                if any(orbit_id[v] == orbit_id[u] for u in processed):
                    continue
            processed.append(v)
            # a refined partition is all clean; only [v] and rest are new
            child = cells[:]
            child[target_idx : target_idx + 1] = [[v], [u for u in target if u != v]]
            child_clean = [True] * len(child)
            child_clean[target_idx] = child_clean[target_idx + 1] = False
            if self._explore(
                child, child_clean, prefix + (v,), depth + 1, eq_first, cmp_best
            ):
                replaced = True
                # the new best leaf lies under this node, so from here on the
                # prefix traces agree exactly
                cmp_best = "eq"
        return replaced


@lru_cache(maxsize=200_000)
def _canonical_labeling(
    n: int, adj: tuple[int, ...], colors: tuple[int, ...] | None
) -> tuple[bytes, int, bool, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Everything about a class that does not depend on the edge order:
    canonical key, the sign taken from the lexicographic edge order, zero
    flag, automorphism generators and the canonical relabeling."""
    cols = colors if colors is not None else (0,) * n
    perm, gens = _Search(n, adj, cols).run()
    perm, gens = tuple(perm), tuple(gens)
    base = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    canon_edges = sorted(
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in base
    )
    key = graph6_encode(build_graph(n, canon_edges))
    if colors is not None:
        inv = [0] * n
        for v, p in enumerate(perm):
            inv[p] = v
        key += b"#" + bytes(cols[inv[p]] for p in range(n))
    # parity of an automorphism's edge action, relative to the sorted order
    is_zero = any(_edge_perm_sign(base, sigma) < 0 for sigma in gens)
    return key, _edge_perm_sign(base, perm), is_zero, gens, perm


def _edge_perm_sign(g_edges: Sequence[tuple[int, int]], sigma: Sequence[int]) -> int:
    images = []
    for u, v in g_edges:
        a, b = sigma[u], sigma[v]
        images.append((a, b) if a < b else (b, a))
    return permutation_sign(images)


def canonical_form(g: SimpleGraph, colors: Sequence[int] | None = None) -> CanonicalClass:
    """Canonical class of a (possibly vertex-colored) simple graph.

    The edge order enters only through the sign: the sign to the canonical
    order is the cached sign of the sorted order times the parity of the
    edge sequence itself."""
    if colors is not None:
        colors = tuple(colors)
        if len(colors) != g.n:
            raise ValueError("color sequence length mismatch")
    key, sorted_sign, is_zero, gens, perm = _canonical_labeling(g.n, g.adj, colors)
    return CanonicalClass(
        canon_key=key,
        sign_to_canon=sorted_sign * permutation_sign(g.edges),
        is_zero=is_zero,
        aut_generators=gens,
        relabel=perm,
    )


def aut_group_order(n: int, generators: Sequence[Sequence[int]]) -> int:
    """Order of the permutation group via a Schreier-Sims stabilizer chain."""
    gens = [tuple(g) for g in generators if any(g[i] != i for i in range(n))]
    if not gens:
        return 1
    order = 1
    for base in range(n):
        if all(g[base] == base for g in gens):
            continue
        transversal: dict[int, tuple[int, ...]] = {base: tuple(range(n))}
        queue = [base]
        while queue:
            x = queue.pop()
            tx = transversal[x]
            for g in gens:
                y = g[x]
                if y not in transversal:
                    transversal[y] = tuple(g[tx[i]] for i in range(n))
                    queue.append(y)
        order *= len(transversal)
        inv_tr: dict[int, tuple[int, ...]] = {}
        for x, t in transversal.items():
            inv = [0] * n
            for i, p in enumerate(t):
                inv[p] = i
            inv_tr[x] = tuple(inv)
        stab: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for x, tx in transversal.items():
            for g in gens:
                y = g[x]
                ity = inv_tr[y]
                sg = tuple(ity[g[tx[i]]] for i in range(n))
                if sg not in seen and any(sg[i] != i for i in range(n)):
                    seen.add(sg)
                    stab.append(sg)
        gens = stab
        if not gens:
            break
    return order
