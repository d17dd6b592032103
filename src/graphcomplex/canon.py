"""Canonical labeling with orientation signs and automorphism generators.

Individualization-refinement search over color-refined partitions, with
pruning by discovered automorphisms (orbit pruning against the prefix
stabilizer) and by a node-invariant trace.  A cell of a partition is a
vertex bitmask.  The token of a discrete partition holds the relabeled
adjacency matrix, one integer per row, so the trace alone orders the
leaves: the canonical representative is the relabeling with the greatest
trace, and two leaves with equal traces differ by an automorphism.

Supports an optional initial vertex coloring; isomorphisms are then
required to preserve colors.  This is used for leaf-labeled graphs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .graphs import SimpleGraph, graph6_from_rows, permutation_sign


class CanonicalClass(NamedTuple):
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


def _refine(
    adj: tuple[int, ...], cells: list[int], clean: list[bool]
) -> list[int]:
    """Equitable refinement; cell order is isomorphism-invariant.

    A cell is a vertex bitmask, and the parts of a split cell come in
    ascending order of their vertices' neighbour counts in the splitter.
    Each step splits the least cell that the least splitting cell splits,
    which is the order a full rescan after every split would give.
    ``clean[i]`` marks a cell that splits no cell by the time it is the
    least unmarked one: a cell found to split nothing stays so, since a part
    of a stable cell is stable; and the last part of a marked cell splits
    nothing once the parts before it do, since its counts are the cell's
    minus theirs, so it keeps the mark.  Both lists are updated in place."""
    si = 0
    while True:
        try:
            si = clean.index(False, si)
        except ValueError:
            return cells
        s_mask = cells[si]
        if s_mask & (s_mask - 1):
            reach = 0
            m = s_mask
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            for ci, cm in enumerate(cells):
                # a cell that misses the splitter's neighbourhood has all
                # counts 0, and so has a singleton cell
                if not cm & reach or not cm & (cm - 1):
                    continue
                groups: dict[int, int] = {}
                m = cm
                while m:
                    low = m & -m
                    c = (adj[low.bit_length() - 1] & s_mask).bit_count()
                    groups[c] = groups.get(c, 0) | low
                    m ^= low
                if len(groups) > 1:
                    parts = [groups[c] for c in sorted(groups)]
                    break
            else:
                clean[si] = True
                continue
        else:
            reach = adj[s_mask.bit_length() - 1]
            for ci, cm in enumerate(cells):
                hit = cm & reach
                if hit and hit != cm:
                    parts = [cm ^ hit, hit]
                    break
            else:
                clean[si] = True
                continue
        cells[ci : ci + 1] = parts
        clean[ci : ci + 1] = [False] * (len(parts) - 1) + [clean[ci]]
        si = min(si, ci)


def _node_token(adj: tuple[int, ...], cells: list[int]) -> tuple:
    """Isomorphism-invariant node descriptor: cell sizes + quotient counts."""
    sizes = tuple([c.bit_count() for c in cells])
    reps = [adj[(c & -c).bit_length() - 1] for c in cells]
    return (sizes, tuple([(a & m).bit_count() for a in reps for m in cells]))


def _orbit_roots(n: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """For each index i < n, the least index of its orbit under the group
    generated by ``perms``, each a permutation of range(n) given as the
    list of images."""
    # union-find whose links all point to a lesser index, so a root is the
    # least index of its set and one ascending pass resolves every root
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i, j in enumerate(perm):
            if i != j:
                a, b = find(i), find(j)
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
    for i in range(n):
        parent[i] = parent[parent[i]]
    return parent


def _orbit_reps(n: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """The least index of each orbit of range(n) under ``perms``, ascending."""
    roots = _orbit_roots(n, perms)
    return [i for i in range(n) if roots[i] == i]


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


class _Search:
    """One canonical-labeling run; collects automorphism generators."""

    def __init__(self, n: int, adj: tuple[int, ...], colors: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self.colors = colors
        self.nbrs = [[u for u in range(n) if a >> u & 1] for a in adj]
        self.leaf_sizes = (1,) * n
        self.identity = tuple(range(n))
        self.gens: list[tuple[int, ...]] = []
        self.cur_trace: list[tuple] = []
        # leaves as (trace, relabeling vertex -> position, its inverse)
        self.first: tuple[tuple, list[int], list[int]] | None = None
        self.best: tuple[tuple, list[int], list[int]] | None = None

    def run(
        self,
    ) -> tuple[tuple[int, ...], list[int], list[int], list[tuple[int, ...]]]:
        """The rows of the canonical adjacency matrix (see ``_leaf``), the
        canonical relabeling (vertex -> position), its inverse and the
        automorphism generators found."""
        initial: dict[int, int] = {}
        for v in range(self.n):
            initial[self.colors[v]] = initial.get(self.colors[v], 0) | 1 << v
        cells = [initial[c] for c in sorted(initial)]
        self._explore(cells, [False] * len(cells), (), 0, True, "eq")
        assert self.best is not None
        trace, perm, order = self.best
        return trace[-1][1], perm, order, self.gens

    def _leaf(self, cells: list[int]) -> tuple[list[int], list[int], tuple]:
        """The relabeling of a discrete partition (vertex -> position), its
        inverse, and its token, whose second part is the relabeled adjacency
        matrix as one integer per row, column 0 the most significant bit;
        the rows compare as the matrix's entries in row-major order would."""
        order = [c.bit_length() - 1 for c in cells]
        perm = [0] * self.n
        for pos, v in enumerate(order):
            perm[v] = pos
        top = 1 << self.n >> 1
        bit = [top >> p for p in perm]
        rows = []
        for v in order:
            r = 0
            for u in self.nbrs[v]:
                r |= bit[u]
            rows.append(r)
        return perm, order, (self.leaf_sizes, tuple(rows))

    def _record_aut(self, perm_a: Sequence[int], order_b: Sequence[int]) -> None:
        # leaf a's relabeling followed by the inverse of leaf b's; equal leaf
        # tokens mean the two relabelings produce the same graph, so this is
        # an automorphism
        sigma = tuple([order_b[p] for p in perm_a])
        if sigma != self.identity and sigma not in self.gens:
            self.gens.append(sigma)

    def _prefix_orbits(self, prefix: tuple[int, ...]) -> list[int]:
        return _orbit_roots(
            self.n, [gen for gen in self.gens if all(gen[v] == v for v in prefix)]
        )

    def _explore(
        self,
        cells: list[int],
        clean: list[bool],
        prefix: tuple[int, ...],
        depth: int,
        eq_first: bool,
        cmp_best: str,
    ) -> bool:
        """Returns True if self.best was (re)placed within this subtree."""
        cells = _refine(self.adj, cells, clean)
        is_leaf = len(cells) == self.n
        if is_leaf:
            perm, order, token = self._leaf(cells)
        else:
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

        if is_leaf:
            # the leaf token holds the whole relabeled graph, so a leaf whose
            # trace equals another's gives the same graph
            trace = tuple(self.cur_trace)
            if self.first is None:
                self.first = (trace, perm, order)
            elif eq_first:
                self._record_aut(perm, self.first[2])

            if cmp_best == "gt" or self.best is None:
                self.best = (trace, perm, order)
                return True
            if cmp_best == "eq" and perm != self.best[1]:
                self._record_aut(perm, self.best[2])
            return False

        target_idx = 0
        while not cells[target_idx] & (cells[target_idx] - 1):
            target_idx += 1
        target = cells[target_idx]
        replaced = False
        processed: list[int] = []
        n_gens_seen = -1
        orbit_id: list[int] = []
        m = target
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if processed:
                if len(self.gens) != n_gens_seen:
                    orbit_id = self._prefix_orbits(prefix)
                    n_gens_seen = len(self.gens)
                if any(orbit_id[v] == orbit_id[u] for u in processed):
                    continue
            processed.append(v)
            # a refined partition is all clean; splitting the target into
            # [v] and the rest marks [v] only, as a split in _refine would
            child = cells[:]
            child[target_idx : target_idx + 1] = [low, target ^ low]
            child_clean = [True] * len(child)
            child_clean[target_idx] = False
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
    rows, perm, order, gens = _Search(n, adj, cols).run()
    perm, gens = tuple(perm), tuple(gens)
    key = graph6_from_rows(n, rows)
    if colors is not None:
        key += b"#" + bytes([cols[v] for v in order])
    base = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    # parity of an automorphism's edge action, relative to the sorted order
    is_zero = any(_edge_perm_sign(base, sigma) < 0 for sigma in gens)
    return key, _edge_perm_sign(base, perm), is_zero, gens, perm


def _edge_perm_sign(g_edges: Sequence[tuple[int, int]], sigma: Sequence[int]) -> int:
    # an edge {a, b}, a < b, as a * n + b, which sorts like (a, b)
    n = len(sigma)
    images = []
    for u, v in g_edges:
        a, b = sigma[u], sigma[v]
        images.append(a * n + b if a < b else b * n + a)
    return permutation_sign(images)


def _swap_automorphisms(
    n: int, adj: Sequence[int], colors: Sequence[int] | None = None
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The color-preserving automorphisms of the form (u w) or (u w)(x y)
    that a test without search finds, each as (permutation, odd), where odd
    means that it permutes the edges oddly, so that the class is zero.

    (u w) is an automorphism iff u and w have the same other neighbours;
    its edge 2-cycles are the edges from u to them.  When their other
    neighbours differ, (u w)(x y) can only be an automorphism if they differ
    in exactly x ~ u and y ~ w, and then it is one iff x and y have the
    same neighbours outside {u, w, x, y}.  Its edge 2-cycles are the edges
    from u and from x to the fixed vertices, and {u x} <-> {w y}.  When u
    and w have the same other neighbours, (u w)(x y) is an automorphism
    only if (x y) is one too, and it is odd only if one of the two is.  So
    if an automorphism that swaps one or two pairs is odd, an odd one is
    reported.  A double swap is reported from both of its pairs.  A swapped pair has equal degrees and colors, which is
    tested first.  A color sequence of the
    wrong length gives nothing here; ``canonical_form`` rejects it."""
    if colors is not None and len(colors) != n:
        return
    deg = [a.bit_count() for a in adj]
    everyone = (1 << n) - 1
    for u in range(n):
        au, du = adj[u], deg[u]
        for w in range(u + 1, n):
            if deg[w] != du or colors is not None and colors[w] != colors[u]:
                continue
            pair = 1 << u | 1 << w
            differ = (au ^ adj[w]) & ~pair
            if not differ:
                sigma = list(range(n))
                sigma[u], sigma[w] = w, u
                yield tuple(sigma), bool((au & ~pair).bit_count() & 1)
                continue
            xb = differ & au
            yb = differ ^ xb
            if xb & (xb - 1) or yb & (yb - 1) or not xb or not yb:
                continue
            x, y = xb.bit_length() - 1, yb.bit_length() - 1
            if colors is not None and colors[x] != colors[y]:
                continue
            moved = pair | xb | yb
            if (adj[x] ^ adj[y]) & ~moved:
                continue
            fixed = everyone & ~moved
            sigma = list(range(n))
            sigma[u], sigma[w], sigma[x], sigma[y] = w, u, y, x
            odd = ((au & fixed).bit_count() + (adj[x] & fixed).bit_count() + 1) & 1
            yield tuple(sigma), bool(odd)


def has_odd_swap(g: SimpleGraph, colors: Sequence[int] | None = None) -> bool:
    """Whether ``_swap_automorphisms`` finds an odd automorphism of g: a
    test without search that is sufficient, not necessary, for g's class
    to be zero."""
    return any(odd for _, odd in _swap_automorphisms(g.n, g.adj, colors))


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
