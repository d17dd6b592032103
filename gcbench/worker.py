"""The timed process: one round of one workload in a fresh interpreter.

Reads a JSON request on stdin, imports graphcomplex from the checkout's
``src`` directory, turns the graph6 inputs into program graphs, runs the
workload's calls, reads the peak resident memory, and only then asks the
program for the extra outputs the checks need.  Right before the timed
calls it times the benchmark's calibration (``calibration.py``), which
``run.py`` uses to scale the round's times to the reference host speed.
Prints one JSON line.  Imports nothing but the standard library, the
program and the benchmark's own stdlib-only modules.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

from calibration import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# -- cohomology ----------------------------------------------------------------


def cohomology_prepare(gc, inputs):
    return inputs["loop_order"]


def cohomology_run(gc, g, ops):
    return ops.call(gc.verify_theorem1, g)


def cohomology_export(gc, g, rep, inputs):
    if rep is None:
        return None
    complexes = sys.modules["graphcomplex.complexes"]
    generate = sys.modules["graphcomplex.generate"]
    out = {"passed": rep.passed, "variants": {}, "generated": {}}
    rs = list(gc.grade_range(g))
    for r in rs:
        out["generated"][r] = sorted(k.decode() for k in generate.generate(r, g + r - 1))
    for variant, report in rep.reports.items():
        bases = {r: gc.build_basis(g, r, variant) for r in rs}
        mats = {}
        for r in rs:
            if r - 1 in bases:
                m = complexes.differential_matrix(bases[r], bases[r - 1])
                mats[r] = {
                    "rows": m.rows,
                    "cols": m.cols,
                    "entries": [[i, j, str(v)] for (i, j), v in sorted(m.entries.items())],
                }
        out["variants"][variant] = {
            "table": {str(k): v for k, v in report.dims_by_degree().items()},
            "rows": [
                [row.vertex_count, row.dim_basis, row.rank_out, row.rank_in, row.dim_h]
                for row in report.rows
            ],
            "bases": {r: [k.decode() for k in b.keys] for r, b in bases.items()},
            "matrices": mats,
        }
    return out


# -- operators -----------------------------------------------------------------


def operators_prepare(gc, inputs):
    return [s.encode("ascii") for s in inputs["graphs"]]


def operators_run(gc, keys, ops):
    operators = sys.modules["graphcomplex.operators"]
    return [ops.call(gc.identity_suite, name, keys) for name in operators.IDENTITIES]


def operators_export(gc, keys, reports, inputs):
    out = {"identities": [], "samples": []}
    for rep in reports:
        if rep is None:
            continue
        out["identities"].append(
            {"identity": rep["identity"], "samples": rep["samples"],
             "passed": rep["passed"], "failures": len(rep["failures"])}
        )
    for key, pick in zip(keys, inputs["adjoint_picks"]):
        x = gc.FormalSum()
        x.add_term(key, 1)
        sample = {
            "D_terms": len(gc.apply_D(x)),
            "delta0_terms": len(gc.apply_delta0(x)),
            "nabla_terms": len(gc.apply_nabla(x)),
        }
        b = gc.singleton(gc.graph6_decode(key))
        db = gc.apply_d(b)
        if db.is_zero():
            sample["adjoint"] = None
        else:
            a_key = sorted(db.keys())[pick % len(db)]
            a = gc.FormalSum()
            a.add_term(a_key, 1)
            lhs = gc.pairing(gc.apply_delta0(a), b)
            rhs = gc.pairing(a, db)
            sample["adjoint"] = [a_key.decode(), str(lhs), str(rhs)]
        out["samples"].append(sample)
    return out


# -- spqr ----------------------------------------------------------------------


def spqr_prepare(gc, inputs):
    return [(gc.graph6_decode(g6), shuffle_seed) for g6, _, shuffle_seed in inputs["graphs"]]


def spqr_one(gc, g, shuffle_seed):
    graphs = sys.modules["graphcomplex.graphs"]
    tree = gc.spqr(g)
    rec = gc.recompose(tree)
    order = list(gc.to_labeled(g).leaf_ids)
    random.Random(shuffle_seed).shuffle(order)
    lg = gc.to_labeled(g, tuple(order))
    check = gc.homotopy_check(lg)
    cls = gc.connectivity_class(g)
    edges = []
    for j in range(g.k):
        case = gc.contraction_case(tree, j)
        image = gc.contract_edge(g, j)
        if isinstance(image, graphs.NonSimple):
            edges.append((case, None, None))
            continue
        img_cls = gc.connectivity_class(image)
        summary = None
        if img_cls >= 2:
            summary = [(nd.kind, len(nd.real_edges)) for nd in gc.spqr(image).nodes]
        edges.append((case, img_cls, summary))
    return tree, rec, lg.leaf_ids, check["passed"], check["n_value"], cls, edges


def spqr_run(gc, prepared, ops):
    return [ops.call(spqr_one, gc, g, shuffle_seed) for g, shuffle_seed in prepared]


def spqr_export(gc, prepared, results, inputs):
    out = []
    for res in results:
        if res is None:
            out.append(None)
            continue
        tree, rec, leaf_ids, passed, n_value, cls, edges = res
        out.append({
            "nodes": [
                {
                    "kind": nd.kind,
                    "vertices": sorted(nd.vertices),
                    "real": [list(e) for e in nd.real_edges],
                    "virtual": [[list(ve.endpoints), ve.twin_node, ve.twin_index] for ve in nd.virtual_edges],
                }
                for nd in tree.nodes
            ],
            "tree_edges": [list(e) for e in tree.tree_edges],
            "recomposed": [rec.n, [list(e) for e in rec.edges]],
            "leaf_ids": list(leaf_ids),
            "homotopy_passed": passed,
            "n_value": n_value,
            "class": cls,
            "edges": [list(e) for e in edges],
        })
    return out


class Ops:
    """Counts attempted operations; an operation that raises is counted as
    failed and the round goes on with the next one."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


WORKLOADS = {
    "cohomology": (cohomology_prepare, cohomology_run, cohomology_export),
    "operators": (operators_prepare, operators_run, operators_export),
    "spqr": (spqr_prepare, spqr_run, spqr_export),
}


def _foreign_modules(preloaded: set[str]) -> list[str]:
    """Top-level modules this process imported, beyond those the interpreter
    loaded at start-up, that are neither stdlib nor the program."""
    own = {"graphcomplex", "layertrace"}
    tops = {name.split(".")[0] for name in sys.modules if name not in preloaded}
    return sorted(t for t in tops if t not in sys.stdlib_module_names and t not in own)


def main() -> int:
    preloaded = set(sys.modules)
    request = json.loads(sys.stdin.read())
    if not os.path.isfile(os.path.join(SRC, "graphcomplex", "__init__.py")):
        print(f"graphcomplex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import graphcomplex as gc

    if not os.path.abspath(gc.__file__).startswith(SRC + os.sep):
        print(f"graphcomplex imported from {gc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    prepare, run, export = WORKLOADS[request["workload"]]
    tracer = None
    if request["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    prepared = prepare(gc, request["inputs"])
    t_ready = time.perf_counter()

    calibration_s = calibrate()
    ops = Ops()
    t_first = time.perf_counter()
    result = run(gc, prepared, ops)
    t_end = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    canon = sys.modules["graphcomplex.canon"]
    layer = None
    if tracer is not None:
        layer = tracer.metrics(t_end - t_first, canon._canonical_labeling.cache_info().currsize)
    foreign = _foreign_modules(preloaded)
    output = export(gc, prepared, result, request["inputs"])
    json.dump(
        {
            "t_ready": t_ready,
            "calibration_s": calibration_s,
            "wall_s": t_end - t_first,
            "peak_rss_mb": peak_kib / 1024,
            "attempted": ops.attempted,
            "failed": len(ops.errors),
            "errors": ops.errors[:5],
            "foreign_modules": foreign,
            "layer": layer,
            "output": output,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
