"""Self-test of the benchmark's checks: each check must pass on the program's
real output and fail on a deliberately corrupted copy of it.

    python3 gcbench/selftest.py

Runs the worker on the cohomology computation at loop order 6 (at the
benchmark's loop order 5 no two non-zero differentials compose, so a
flipped sign could not break d d = 0 there), on three operator samples and on six glued SPQR graphs,
then applies one corruption per check and reports which check caught it.
Exits 1 if a genuine output fails a check or a corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from run import run_round  # noqa: E402

SELFTEST_LOOP_ORDER = 6


def _worker_output(workload: str, workload_inputs: dict):
    request = json.dumps({"workload": workload, "trace": 0, "inputs": workload_inputs})
    res = run_round(request, time.perf_counter() + 170)
    if res["failed"]:
        raise SystemExit(f"{workload}: the program failed: {res['errors']}")
    return res["output"]


# -- cohomology corruptions --------------------------------------------------


def _first_row(out, pred):
    for variant, rep in out["variants"].items():
        for row in rep["rows"]:
            if pred(row):
                return variant, row
    raise LookupError("no row matches")


def rank_off_by_one(inp, out):
    _, row = _first_row(out, lambda row: row[2] > 0)
    row[2] += 1


def dropped_basis_class(inp, out):
    bases = out["variants"]["full"]["bases"]
    r = max(bases, key=lambda r: len(bases[r]))
    bases[r].pop()


def table_changed(inp, out):
    out["variants"]["triconnected"]["table"] = {}


def matrix_sign_flipped(inp, out):
    """Flip one entry of a differential that composes with a neighbour."""
    mats = out["variants"]["full"]["matrices"]
    for r in sorted(mats, key=int):
        upper = mats.get(str(int(r) + 1))
        if upper is None:
            continue
        for entry in mats[r]["entries"]:
            entry[2] = str(-Fraction(entry[2]))
            a = [(i, j, Fraction(v)) for i, j, v in mats[r]["entries"]]
            b = [(i, j, Fraction(v)) for i, j, v in upper["entries"]]
            if not oracle.product_is_zero(a, b):
                return
            entry[2] = str(-Fraction(entry[2]))
    raise LookupError("no entry whose sign matters for d d")


def zero_class_added(inp, out):
    for r, keys in out["generated"].items():
        for key in keys:
            if oracle.has_odd_automorphism(*oracle.g6_decode(key)):
                out["variants"]["full"]["bases"][r].append(key)
                return
    raise LookupError("no zero class generated")


def duplicate_class(inp, out):
    bases = out["variants"]["full"]["bases"]
    r = max(bases, key=lambda r: len(bases[r]))
    n, edges = oracle.g6_decode(bases[r][0])
    perm = list(range(n))[::-1]
    bases[r].append(oracle.g6_encode(n, [(perm[u], perm[v]) for u, v in edges]))


def cubic_class_missing(inp, out):
    top = str(2 * (inp["loop_order"] - 1))
    out["generated"][top].pop()


def class_below_threshold(inp, out):
    for r, keys in out["generated"].items():
        for key in keys:
            n, edges = oracle.g6_decode(key)
            if not oracle.has_odd_automorphism(n, edges) and not oracle.is_triconnected(n, edges):
                out["variants"]["triconnected"]["bases"][r].append(key)
                return
    raise LookupError("no non-zero class below triconnectivity")


def malformed_class(inp, out):
    bases = out["variants"]["full"]["bases"]
    r = max(bases, key=lambda r: len(bases[r]))
    n, edges = oracle.g6_decode(bases[r][0])
    bases[r][0] = oracle.g6_encode(n, edges[1:])


COHOMOLOGY = [
    (rank_off_by_one, "rank"),
    (dropped_basis_class, "basis_complete"),
    (table_changed, "table"),
    (matrix_sign_flipped, "d_squared"),
    (zero_class_added, "odd_automorphism"),
    (duplicate_class, "non_isomorphic"),
    (cubic_class_missing, "cubic_count"),
    (class_below_threshold, "connectivity_threshold"),
    (malformed_class, "basis_shape"),
]


# -- operator corruptions -------------------------------------------------------


def identity_term_sign_flipped(inp, out):
    """Evaluate delta0_D with the sign of its nabla term flipped, through
    the program's own identity harness, and report that as the output."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import graphcomplex.operators as ops

    original = ops.IDENTITIES["delta0_D"]
    ops.IDENTITIES["delta0_D"] = lambda x: (
        ops.apply_delta0(ops.apply_D(x)) - ops.apply_D(ops.apply_delta0(x)) + ops.apply_nabla(x)
    )
    try:
        rep = ops.identity_suite("delta0_D", [g.encode() for g in inp["graphs"]])
    finally:
        ops.IDENTITIES["delta0_D"] = original
    for entry in out["identities"]:
        if entry["identity"] == "delta0_D":
            entry.update(passed=rep["passed"], failures=len(rep["failures"]))


def operator_vacuous(inp, out):
    for s in out["samples"]:
        s["D_terms"] = 0


def adjoint_broken(inp, out):
    for s in out["samples"]:
        if s["adjoint"] is not None:
            s["adjoint"][1] = str(Fraction(s["adjoint"][1]) + 1)
            return
    raise LookupError("no paired sample")


OPERATORS = [
    (identity_term_sign_flipped, "identities"),
    (operator_vacuous, "non_vacuous"),
    (adjoint_broken, "adjoint"),
]


# -- spqr corruptions --------------------------------------------------------------


def _node(out, kind):
    for res in out:
        for nd in res["nodes"]:
            if nd["kind"] == kind:
                return res, nd
    raise LookupError(f"no {kind} node")


def wrong_r_count(inp, out):
    _, nd = _node(out, "R")
    nd["kind"] = "P"


def recompose_drops_edge(inp, out):
    out[0]["recomposed"][1].pop()


def s_node_not_cycle(inp, out):
    _, nd = _node(out, "S")
    extra = [nd["vertices"][0], nd["vertices"][2]]
    nd["real"].append(extra)


def r_node_not_triconnected(inp, out):
    for res in out:
        for nd in res["nodes"]:
            if nd["kind"] == "R" and nd["real"]:
                nd["real"].pop()
                return
    raise LookupError("no R node with a real edge")


def homotopy_failed(inp, out):
    out[0]["homotopy_passed"] = False


def connectivity_wrong(inp, out):
    out[0]["class"] = 3


def contraction_case_wrong(inp, out):
    for res in out:
        for e in res["edges"]:
            if e[0] == "R-local" and e[1] is not None:
                e[0] = "S-shrink"
                return
    raise LookupError("no R-local edge with a simple contraction")


SPQR = [
    (wrong_r_count, "r_count"),
    (recompose_drops_edge, "recompose"),
    (s_node_not_cycle, "skeleta"),
    (r_node_not_triconnected, "skeleta"),
    (homotopy_failed, "homotopy"),
    (connectivity_wrong, "connectivity"),
    (contraction_case_wrong, "contraction_case"),
]


def main() -> int:
    cases = {
        "cohomology": ({"loop_order": SELFTEST_LOOP_ORDER}, COHOMOLOGY),
        "operators": (
            {"graphs": inputs.operator_samples(0, ((7, 11, 1), (7, 12, 2))), "adjoint_picks": [0, 1, 2]},
            OPERATORS,
        ),
        "spqr": ({"graphs": inputs.spqr_samples(0, 2, range(10, 13))}, SPQR),
    }
    bad = 0
    for workload, (workload_inputs, corruptions) in cases.items():
        out = _worker_output(workload, workload_inputs)
        genuine = checks.CHECKS[workload](workload_inputs, out)
        print(f"{workload}: genuine output {'passes' if not genuine else 'FAILS ' + str(genuine)}")
        bad += bool(genuine)
        for corrupt, expected in corruptions:
            broken = copy.deepcopy(out)
            corrupt(workload_inputs, broken)
            caught = checks.CHECKS[workload](workload_inputs, broken)
            ok = expected in caught
            bad += not ok
            print(f"  {corrupt.__name__:28s} -> {'caught by ' + expected if ok else 'NOT CAUGHT'}"
                  f" (failing checks: {', '.join(sorted(caught)) or 'none'})")
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
