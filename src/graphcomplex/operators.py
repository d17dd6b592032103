"""Pointwise dual-side operators on formal sums: d, delta0, nabla, D, pi,
Dbar, delta_k, plus the identity-checking harness.

Formal sums may carry disconnected classes: the canonical labeling treats
a disjoint union as one graph, so a disconnected class ("DiscClass") is
simply the canonical key of the whole graph, with the same zero/sign
bookkeeping as connected classes.

Sign conventions (validated by the identity suite and the adjointness
check rather than asserted):
  - d: contraction of the j-th edge carries (-1)^(j-1);
  - nabla and delta0: the new edge becomes the first in the ordering,
    all other edges keep their positions;
  - D: edges keep their identity and positions; each removal of a vertex
    v carries the weight (-1)^(deg v + 1) / 2.

With these conventions the operator identities hold in the form
  delta0 D - D delta0 = nabla        (commutator)
  nabla D + D nabla = 0              (anticommutator)
  D^2 = 0
which is the bracket structure forced by the telescoping
  delta_k = (k-1)/k! ad_Dbar^(k-1)(nabla),
since that formula requires ad_Dbar(delta0) = -nabla.

D is summed over the orbits of its moves under the automorphism group of
the class (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  A move is a vertex v with a reattachment {edge position: new
endpoint}.  The term of a move's image under an automorphism is the move's
term relabeled, with its edges reordered by the automorphism's edge
permutation: the same class, with that permutation's sign.  A non-zero
class has only even automorphisms, so one move per orbit is built and
canonized, weighted by the orbit size; for a zero class the terms cancel
and its image is 0.  delta0 and nabla make few terms per class and sum
every move.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Callable, Iterator, Sequence

from .canon import _orbit_roots, aut_group_order, canonical_form
from .formal import FormalSum
from .graphs import (
    NonSimple,
    SimpleGraph,
    add_edge,
    build_graph,
    component_masks,
    contract_edge,
    graph6_decode,
    split_vertex,
)

Operator = Callable[[FormalSum], FormalSum]
Terms = Iterator[tuple[SimpleGraph, Fraction | int]]

# The number of classes whose image each operator keeps.  The most distinct
# inputs measured for one operator are 1,302 (D in `verify deltak
# --max-loops 6`, 34 MiB of images); a bound below that count re-computes
# images, since the identity suites revisit classes far apart in time.
_IMAGE_CACHE_SIZE = 2048


def _class_image(terms: Callable[[SimpleGraph], Terms]):
    """The image of one class key under the operator whose value on a
    concrete graph is the sum of ``terms(g)``, computed once per process and
    kept immutable so that callers cannot alter a cached image."""

    @lru_cache(maxsize=_IMAGE_CACHE_SIZE)
    def image(key: bytes) -> tuple[tuple[bytes, Fraction], ...]:
        out = FormalSum()
        for h, coeff in terms(graph6_decode(key)):
            out.add_graph(h, coeff)
        return tuple(out.terms.items())

    return image


def _extend(image, x: FormalSum) -> FormalSum:
    """Linear extension: the sum of coeff * image(key) over the terms of x."""
    out = FormalSum()
    for key, coeff in x:
        for ikey, icoeff in image(key):
            out.add_term(ikey, coeff * icoeff)
    return out


def _contractions(g: SimpleGraph) -> Terms:
    for j in range(g.k):
        image = contract_edge(g, j)
        if not isinstance(image, NonSimple):
            yield image, (-1) ** j


_d_image = _class_image(_contractions)


def apply_d(x: FormalSum) -> FormalSum:
    """Signed sum of simple edge contractions, extended linearly."""
    return _extend(_d_image, x)


def _splittings(g: SimpleGraph) -> Terms:
    for v in range(g.n):
        incident = [i for i, e in enumerate(g.edges) if v in e]
        m = len(incident)
        if m < 4:
            continue
        # unordered blocks: the first incident edge stays with v
        rest = incident[1:]
        for size in range(2, m - 1):
            for moved in combinations(rest, size):
                yield split_vertex(g, v, moved), 1


_delta0_image = _class_image(_splittings)


def apply_delta0(x: FormalSum) -> FormalSum:
    """Vertex splitting: each vertex of valence >= 4, each unordered
    distribution of its edges into two blocks of size >= 2."""
    return _extend(_delta0_image, x)


def _edge_additions(g: SimpleGraph) -> Terms:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield add_edge(g, u, v), 1


_nabla_image = _class_image(_edge_additions)


def apply_nabla(x: FormalSum) -> FormalSum:
    """Add one edge in all possible ways (new edge first)."""
    return _extend(_nabla_image, x)


def _reattachments(g: SimpleGraph, v: int, incident: list[tuple[int, int]]):
    """All legal new endpoints of v's dangling edge-ends after deleting v,
    as tuples aligned with `incident`, the (edge position, other endpoint)
    pairs of v's edges.  The end of edge (v, w) may go to any surviving
    vertex t with t != w, (t, w) not an existing edge, and no two
    reassigned ends forming equal pairs.
    """
    survivors = [u for u in range(g.n) if u != v]
    fixed_edges = {e for e in g.edges if v not in e}
    chosen: list[int] = []

    def rec(idx: int, used: set[tuple[int, int]]):
        if idx == len(incident):
            yield tuple(chosen)
            return
        w = incident[idx][1]
        for t in survivors:
            if t == w:
                continue
            pair = (t, w) if t < w else (w, t)
            if pair in fixed_edges or pair in used:
                continue
            chosen.append(t)
            used.add(pair)
            yield from rec(idx + 1, used)
            used.discard(pair)
            chosen.pop()

    yield from rec(0, set())


def _vertex_removals(g: SimpleGraph) -> Terms:
    """The terms of D on g: one move per orbit of moves under Aut(g),
    weighted by the orbit size, and none for a zero class (module
    docstring).  A generator sigma that permutes the edge positions by pi
    sends the move (v, {p: t}) to (sigma v, {pi(p): sigma t})."""
    cf = canonical_form(g)
    if cf.is_zero:
        return
    incident = [
        [(i, b if a == v else a) for i, (a, b) in enumerate(g.edges) if v in (a, b)]
        for v in range(g.n)
    ]
    # a move (v, targets) gives the ends of incident[v] the new endpoints
    # `targets`, in ascending edge position
    moves = [(v, ts) for v in range(g.n) for ts in _reattachments(g, v, incident[v])]
    index = {move: i for i, move in enumerate(moves)}
    position = {e: i for i, e in enumerate(g.edges)}
    perms = []
    for sigma in cf.aut_generators:
        pi = []
        for u, w in g.edges:
            a, b = sigma[u], sigma[w]
            pi.append(position[(a, b) if a < b else (b, a)])
        # order[v]: v's ends in the ascending positions of their images,
        # which are the ends of sigma v
        order = [
            sorted(range(len(ends)), key=lambda k: pi[ends[k][0]]) for ends in incident
        ]
        perms.append(
            [index[(sigma[v], tuple([sigma[ts[k]] for k in order[v]]))] for v, ts in moves]
        )
    roots = _orbit_roots(len(moves), perms)
    sizes = Counter(roots)
    for i, (v, ts) in enumerate(moves):
        if roots[i] != i:
            continue
        edges = list(g.edges)
        for (p, w), t in zip(incident[v], ts):
            edges[p] = (t, w)
        relabel = [u if u < v else u - 1 for u in range(g.n)]
        weight = Fraction((-1) ** (len(ts) + 1) * sizes[i], 2)
        yield build_graph(g.n - 1, [(relabel[a], relabel[b]) for a, b in edges]), weight


_D_image = _class_image(_vertex_removals)


def apply_D(x: FormalSum) -> FormalSum:
    """Remove one vertex and reconnect its edges in all legal ways, with
    weight (-1)^(deg v + 1) / 2 for the removal of vertex v.

    Output classes may be disconnected; loop order rises by one while the
    edge count is unchanged.
    """
    return _extend(_D_image, x)


def component_count(key: bytes) -> int:
    return len(component_masks(graph6_decode(key)))


def apply_pi(x: FormalSum) -> FormalSum:
    """Project away all disconnected classes."""
    out = FormalSum()
    for key, coeff in x:
        if component_count(key) <= 1:
            out.add_term(key, coeff)
    return out


def apply_Dbar(x: FormalSum) -> FormalSum:
    return apply_pi(apply_D(x))


def apply_delta_k(k: int, x: FormalSum) -> FormalSum:
    """delta_k = (k-1)/k! * ad_Dbar^(k-1)(nabla), ad_Dbar(X) = Dbar X - X Dbar."""
    if k < 2:
        raise ValueError("delta_k requires k >= 2")

    def ad(op: Operator) -> Operator:
        return lambda y: apply_Dbar(op(y)) - op(apply_Dbar(y))

    op: Operator = apply_nabla
    for _ in range(k - 1):
        op = ad(op)
    return op(x).scaled(Fraction(k - 1, factorial(k)))


def aut_order(key: bytes) -> int:
    g = graph6_decode(key)
    cf = canonical_form(g)
    return aut_group_order(g.n, cf.aut_generators)


def pairing(x: FormalSum, y: FormalSum) -> Fraction:
    """Automorphism-weighted pairing: <gamma, gamma> = |Aut(gamma)| on
    classes, extended bilinearly.  With this normalization the vertex
    splitting delta0 is exactly adjoint to the edge contraction d."""
    total = Fraction(0)
    for key, coeff in x:
        other = y.coefficient(key)
        if other:
            total += coeff * other * aut_order(key)
    return total


# ---------------------------------------------------------------------------
# identity harness

IDENTITIES: dict[str, Callable[[FormalSum], FormalSum]] = {
    "square_zero": lambda x: (
        apply_delta0(apply_delta0(x))
        + apply_delta0(apply_nabla(x))
        + apply_nabla(apply_delta0(x))
        + apply_nabla(apply_nabla(x))
    ),
    "nabla_squared": lambda x: apply_nabla(apply_nabla(x)),
    "delta0_D": lambda x: (
        apply_delta0(apply_D(x)) - apply_D(apply_delta0(x)) - apply_nabla(x)
    ),
    "D_squared": lambda x: apply_D(apply_D(x)),
    "nabla_D": lambda x: apply_nabla(apply_D(x)) + apply_D(apply_nabla(x)),
    "Dbar_squared": lambda x: apply_Dbar(apply_Dbar(x)),
    "nabla_Dbar": lambda x: (
        apply_nabla(apply_Dbar(x)) + apply_Dbar(apply_nabla(x))
    ),
    "delta3": lambda x: apply_delta_k(3, x),
    "delta4": lambda x: apply_delta_k(4, x),
}


def identity_suite(name: str, sample_keys: Sequence[bytes]) -> dict:
    """Evaluate a named identity (must vanish) on each sample class.

    A sample is the graph6 of any labeling of its class; it enters as its
    canonical class, so that every labeling shares the cached images, and a
    zero class enters as 0.  Each failure is a minimal witness (the sample
    as given, (least key of the non-zero result, its coefficient))."""
    check = IDENTITIES[name]
    failures = []
    for key in sample_keys:
        x = FormalSum()
        x.add_graph(graph6_decode(key))
        result = check(x)
        if not result.is_zero():
            term, coeff = next(iter(result))
            failures.append((key.decode("ascii", "replace"), (term.decode(), coeff)))
    return {
        "identity": name,
        "samples": len(sample_keys),
        "passed": len(sample_keys) - len(failures),
        "failures": failures,
    }
