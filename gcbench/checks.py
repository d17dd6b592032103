"""Checks of the program's outputs against the benchmark's own computations
(``oracle``), networkx, and published values.  Each check function returns
a dict from the name of every failed check to its messages; an empty dict
means every check passed.  networkx is imported here, never in the timed
process.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import networkx as nx

import oracle

# dim H by degree for the graph complex at loop order g (the paper's figure
# and the README's table)
PAPER_COHOMOLOGY = {3: {0: 1}, 4: {}, 5: {0: 1}, 6: {3: 1}, 7: {0: 1}}
# connected cubic graphs on r vertices, OEIS A002851
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
THRESHOLD = {"full": 1, "biconnected": 2, "triconnected": 3}


def _nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _connectivity3(n: int, edges) -> int:
    return min(3, nx.node_connectivity(_nx(n, edges)))


def _fail(failures: dict, name: str, message: str) -> None:
    failures.setdefault(name, []).append(message)


# -- cohomology ----------------------------------------------------------------


def check_cohomology(inputs: dict, out: dict) -> dict[str, list[str]]:
    g = inputs["loop_order"]
    failures: dict[str, list[str]] = {}
    expected = {str(k): v for k, v in PAPER_COHOMOLOGY[g].items()}
    tables = {v: rep["table"] for v, rep in out["variants"].items()}
    if sorted(tables) != sorted(THRESHOLD):
        _fail(failures, "table", f"variants {sorted(tables)}")
    for variant, table in tables.items():
        if table != expected:
            _fail(failures, "table", f"{variant}: {table} != paper {expected}")
    if not out["passed"] or len({str(sorted(t.items())) for t in tables.values()}) != 1:
        _fail(failures, "table", "the three variants disagree")

    generated = {int(r): keys for r, keys in out["generated"].items()}
    top = 2 * (g - 1)
    if top in CUBIC_COUNTS and len(generated.get(top, ())) != CUBIC_COUNTS[top]:
        _fail(failures, "cubic_count",
              f"{len(generated.get(top, ()))} cubic classes on {top} vertices,"
              f" A002851 says {CUBIC_COUNTS[top]}")

    zero_class = {}
    connectivity = {}
    for r, keys in generated.items():
        for key in keys:
            n, edges = oracle.g6_decode(key)
            zero_class[key] = oracle.has_odd_automorphism(n, edges)
            connectivity[key] = _connectivity3(n, edges)

    for variant, rep in out["variants"].items():
        bases = {int(r): keys for r, keys in rep["bases"].items()}
        mats = {int(r): m for r, m in rep["matrices"].items()}
        rows = {row[0]: row for row in rep["rows"]}
        threshold = THRESHOLD[variant]
        for r, keys in bases.items():
            k = g + r - 1
            # basis classes: shape, no odd automorphism, pairwise distinct
            graphs = []
            for key in keys:
                n, edges = oracle.g6_decode(key)
                adj = oracle.adjacency(n, edges)
                min_degree = min((len(a) for a in adj), default=0)
                if n != r or len(edges) != k or min_degree < 3 or not oracle.is_connected_without(n, adj):
                    _fail(failures, "basis_shape", f"{variant} r={r}: {key}")
                if oracle.has_odd_automorphism(n, edges):
                    _fail(failures, "odd_automorphism", f"{variant} r={r}: {key}")
                graphs.append(_nx(n, edges))
            for (ka, a), (kb, b) in combinations(zip(keys, graphs), 2):
                if nx.faster_could_be_isomorphic(a, b) and nx.is_isomorphic(a, b):
                    _fail(failures, "non_isomorphic", f"{variant} r={r}: {ka} ~ {kb}")
            # the basis is exactly the generated classes that are not zero
            # classes and meet the variant's connectivity threshold
            want = sorted(
                key for key in generated.get(r, ())
                if not zero_class[key] and connectivity[key] >= threshold
            )
            below = [key for key in keys if key in connectivity and connectivity[key] < threshold]
            if below:
                _fail(failures, "connectivity_threshold", f"{variant} r={r}: {below}")
            if sorted(keys) != want:
                _fail(failures, "basis_complete",
                      f"{variant} r={r}: {len(keys)} classes, expected {len(want)}")

        for r, row in rows.items():
            _, dim, rank_out, rank_in, dim_h = row
            if dim != len(bases.get(r, ())) or dim_h != dim - rank_out - rank_in:
                _fail(failures, "rows", f"{variant} r={r}: {row}")
            m = mats.get(r)
            if m is None:
                if rank_out:
                    _fail(failures, "rank", f"{variant} r={r}: rank {rank_out} without a matrix")
                continue
            if (m["rows"], m["cols"]) != (len(bases[r - 1]), len(bases[r])):
                _fail(failures, "rows", f"{variant} r={r}: matrix shape {m['rows']}x{m['cols']}")
            own = oracle.rank(m["rows"], m["cols"], [(i, j, Fraction(v)) for i, j, v in m["entries"]])
            if own != rank_out:
                _fail(failures, "rank", f"{variant} r={r}: program {rank_out}, own elimination {own}")
            if r + 1 in rows and rows[r + 1][2] != rank_in:
                _fail(failures, "rank", f"{variant} r={r}: rank_in {rank_in} != rank_out of r+1")
        for r, m in mats.items():
            upper = mats.get(r + 1)
            if upper is None:
                continue
            a = [(i, j, Fraction(v)) for i, j, v in m["entries"]]
            b = [(i, j, Fraction(v)) for i, j, v in upper["entries"]]
            if not oracle.product_is_zero(a, b):
                _fail(failures, "d_squared", f"{variant}: d d != 0 from r={r + 1} to r={r - 1}")
    return failures


# -- operators -----------------------------------------------------------------

IDENTITY_NAMES = (
    "square_zero", "nabla_squared", "delta0_D", "D_squared", "nabla_D",
    "Dbar_squared", "nabla_Dbar", "delta3", "delta4",
)


def check_operators(inputs: dict, out: dict) -> dict[str, list[str]]:
    failures: dict[str, list[str]] = {}
    count = len(inputs["graphs"])
    names = [rep["identity"] for rep in out["identities"]]
    if sorted(names) != sorted(IDENTITY_NAMES):
        _fail(failures, "identities", f"identities run: {names}")
    for rep in out["identities"]:
        if rep["samples"] != count or rep["passed"] != count or rep["failures"]:
            _fail(failures, "identities", f"{rep['identity']}: {rep['passed']}/{rep['samples']} vanish")

    samples = out["samples"]
    for op in ("D_terms", "delta0_terms", "nabla_terms"):
        if not any(s[op] for s in samples):
            _fail(failures, "non_vacuous", f"{op} is zero on every sample")
    for g6, s in zip(inputs["graphs"], samples):
        if not (s["D_terms"] or s["delta0_terms"] or s["nabla_terms"]):
            _fail(failures, "non_vacuous", f"{g6}: D, delta0 and nabla all vanish")

    paired = 0
    for g6, s in zip(inputs["graphs"], samples):
        if s["adjoint"] is None:
            continue
        a_key, lhs, rhs = s["adjoint"]
        paired += 1
        if Fraction(lhs) != Fraction(rhs) or Fraction(rhs) == 0:
            _fail(failures, "adjoint", f"{g6} against {a_key}: <delta0 a, b> = {lhs}, <a, d b> = {rhs}")
    if not paired:
        _fail(failures, "adjoint", "d b vanished on every sample")
    return failures


# -- spqr ----------------------------------------------------------------------


def _r_weight(kinds_and_reals) -> int:
    return sum(reals for kind, reals in kinds_and_reals if kind == "R")


def check_spqr(inputs: dict, out: list) -> dict[str, list[str]]:
    failures: dict[str, list[str]] = {}
    for (g6, pieces, _), res in zip(inputs["graphs"], out):
        if res is None:
            continue  # a failed operation, counted as such
        n, edges = oracle.g6_decode(g6)
        rn, redges = res["recomposed"]
        if not nx.is_isomorphic(_nx(rn, [tuple(e) for e in redges]), _nx(n, edges)):
            _fail(failures, "recompose", g6)

        nodes = res["nodes"]
        for i, nd in enumerate(nodes):
            skel = [tuple(e) for e in nd["real"]] + [tuple(v[0]) for v in nd["virtual"]]
            verts = sorted({x for e in skel for x in e})
            if verts != nd["vertices"]:
                _fail(failures, "skeleta", f"{g6}: node {i} vertex set")
                continue
            index = {v: j for j, v in enumerate(verts)}
            local = [(index[a], index[b]) for a, b in skel]
            if nd["kind"] == "S":
                adj = oracle.adjacency(len(verts), local)
                ok = (len(local) >= 3 and len(set(map(frozenset, local))) == len(local)
                      and all(len(a) == 2 for a in adj) and oracle.is_connected_without(len(verts), adj))
            elif nd["kind"] == "P":
                ok = len(verts) == 2 and len(local) >= 3
            else:
                simple = {tuple(sorted(e)) for e in local}
                ok = len(simple) == len(local) and oracle.is_triconnected(len(verts), sorted(simple))
            if not ok:
                shape = {"S": "cycle", "P": "bond"}.get(nd["kind"], "triconnected skeleton")
                _fail(failures, "skeleta", f"{g6}: {nd['kind']} node {i} is not a {shape}")

        r_nodes = sum(nd["kind"] == "R" for nd in nodes)
        if r_nodes != pieces:
            _fail(failures, "r_count", f"{g6}: {r_nodes} R nodes, {pieces} pieces glued")

        first = res["leaf_ids"][0]
        neighbours = [b if a == first else a for a, b in res["tree_edges"] if first in (a, b)]
        own_n = 2
        if len(neighbours) == 1 and nodes[neighbours[0]]["kind"] == "S":
            own_n = len(nodes[neighbours[0]]["virtual"])
        if not res["homotopy_passed"] or res["n_value"] != own_n:
            _fail(failures, "homotopy",
                  f"{g6}: passed={res['homotopy_passed']} N={res['n_value']} (own N={own_n})")

        if res["class"] != _connectivity3(n, edges):
            _fail(failures, "connectivity", f"{g6}: class {res['class']}")

        weight = _r_weight((nd["kind"], len(nd["real"])) for nd in nodes)
        if len(res["edges"]) != len(edges):
            _fail(failures, "contraction_case", f"{g6}: {len(res['edges'])} edges reported")
        for j, (case, img_cls, summary) in enumerate(res["edges"]):
            image = oracle.contract(n, edges, j)
            if (image is None) != (img_cls is None):
                _fail(failures, "contraction_case", f"{g6} edge {j}: simplicity")
                continue
            if image is None:
                continue
            bi = oracle.is_biconnected(*image)
            if bi != (case != "P-kill") or bi != (img_cls >= 2):
                _fail(failures, "contraction_case",
                      f"{g6} edge {j}: {case}, class {img_cls}, biconnected {bi}")
                continue
            if summary is not None:
                w = _r_weight(summary)
                if (case == "R-local" and not w < weight) or (case.startswith("S-") and w != weight):
                    _fail(failures, "contraction_case",
                          f"{g6} edge {j}: {case} with R weight {weight} -> {w}")
    return failures


CHECKS = {"cohomology": check_cohomology, "operators": check_operators, "spqr": check_spqr}
