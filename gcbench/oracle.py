"""Graph algorithms of the benchmark's own, written apart from graphcomplex.

The input generators and the output checks use these instead of the
program's code, so that a check never shares the code path it checks.
A graph here is ``(n, edges)`` with ``edges`` a list of ``(u, v)``, u < v,
whose order is the orientation.  Everything is stdlib and exact.
"""

from __future__ import annotations

from fractions import Fraction


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Short-form graph6; edges in lexicographic order."""
    data = text.encode("ascii") if isinstance(text, str) else text
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 size byte in {text!r}")
    bits = []
    for byte in data[1:]:
        x = byte - 63
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    if len(bits) < n * (n - 1) // 2:
        raise ValueError(f"truncated graph6 {text!r}")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    edges.sort()
    return n, edges


def g6_encode(n: int, edges) -> str:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    out = [63 + n]
    acc = nb = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | ((i, j) in present)
            nb += 1
            if nb == 6:
                out.append(63 + acc)
                acc = nb = 0
    if nb:
        out.append(63 + (acc << (6 - nb)))
    return bytes(out).decode("ascii")


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected_without(n: int, adj: list[set[int]], removed=frozenset()) -> bool:
    keep = [v for v in range(n) if v not in removed]
    if not keep:
        return True
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen and y not in removed:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(keep)


def is_biconnected(n: int, edges) -> bool:
    """Connected, at least 3 vertices, and no cut vertex (lowpoint DFS)."""
    adj = adjacency(n, edges)
    if n < 3:
        return False
    disc = [-1] * n
    low = [0] * n
    disc[0] = low[0] = 0
    counter = 1
    root_children = 0
    # iterative DFS: (vertex, parent, neighbour iterator)
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = counter
                counter += 1
                if v == 0:
                    root_children += 1
                stack.append((w, v, iter(adj[w])))
                advanced = True
                break
            if w != parent:
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack.pop()
        if parent >= 0:
            low[parent] = min(low[parent], low[v])
            if parent != 0 and low[v] >= disc[parent]:
                return False
    return counter == n and root_children == 1


def is_triconnected(n: int, edges) -> bool:
    """At least 4 vertices and no vertex pair whose removal disconnects."""
    adj = adjacency(n, edges)
    if n < 4 or not is_biconnected(n, edges):
        return False
    return all(
        is_connected_without(n, adj, {u, v}) for u in range(n) for v in range(u + 1, n)
    )


def contract(n: int, edges, j: int):
    """Contract edge j; None if a parallel edge would arise.  Vertex labels
    and edge order of the image are irrelevant to the checks that use it."""
    u, v = edges[j]
    adj = adjacency(n, edges)
    if adj[u] & adj[v]:
        return None
    relabel = {}
    for w in range(n):
        if w != v:
            relabel[w] = len(relabel)
    relabel[v] = relabel[u]
    out = []
    for i, (a, b) in enumerate(edges):
        if i == j:
            continue
        a, b = relabel[a], relabel[b]
        out.append((min(a, b), max(a, b)))
    return n - 1, out


def isomorphisms(n: int, edges, other_edges):
    """Yield every isomorphism from (n, edges) onto (n, other_edges) as a
    tuple image[v], by backtracking over vertices in BFS order with a
    degree-profile invariant."""
    adj = adjacency(n, edges)
    adj_b = adjacency(n, other_edges)

    def profile(a, v):
        return len(a[v]), tuple(sorted(len(a[w]) for w in a[v]))

    inv = [profile(adj, v) for v in range(n)]
    inv_b = [profile(adj_b, v) for v in range(n)]
    if sorted(inv) != sorted(inv_b):
        return
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(n), key=lambda v: (-inv[v][0], v)):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y in sorted(adj[x]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    image = [-1] * n
    used = [False] * n

    def extend(depth: int):
        if depth == n:
            yield tuple(image)
            return
        v = order[depth]
        for w in range(n):
            if used[w] or inv_b[w] != inv[v]:
                continue
            if all((x in adj[v]) == (image[x] in adj_b[w]) for x in order[:depth]):
                image[v] = w
                used[w] = True
                yield from extend(depth + 1)
                used[w] = False
                image[v] = -1

    yield from extend(0)


def automorphisms(n: int, edges):
    return isomorphisms(n, edges, edges)


def perm_parity(seq) -> int:
    """+1 or -1: parity of the permutation sorting a list of distinct items."""
    pos = {x: i for i, x in enumerate(sorted(seq))}
    perm = [pos[x] for x in seq]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def edge_parity(edges, sigma) -> int:
    images = []
    for u, v in edges:
        a, b = sigma[u], sigma[v]
        images.append((min(a, b), max(a, b)))
    return perm_parity(images)


def has_odd_automorphism(n: int, edges) -> bool:
    """True iff some automorphism permutes the edges oddly (a zero class)."""
    base = sorted(edges)
    return any(edge_parity(base, s) < 0 for s in automorphisms(n, edges))


def rank(rows: int, cols: int, entries) -> int:
    """Rank over Q by Gaussian elimination on dense Fraction rows."""
    mat = [[Fraction(0)] * cols for _ in range(rows)]
    for i, j, v in entries:
        mat[i][j] += Fraction(v)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def product_is_zero(a_entries, b_entries) -> bool:
    """A·B == 0 for sparse (i, j, v) triples, by explicit accumulation."""
    b_rows: dict[int, list] = {}
    for i, j, v in b_entries:
        b_rows.setdefault(i, []).append((j, Fraction(v)))
    acc: dict[tuple[int, int], Fraction] = {}
    for i, j, v in a_entries:
        for jj, w in b_rows.get(j, ()):
            acc[(i, jj)] = acc.get((i, jj), Fraction(0)) + Fraction(v) * w
    return not any(acc.values())
