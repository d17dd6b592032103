"""Command-line surface: enumeration, dimension tables, cohomology,
SPQR inspection, and verification suites.

Reports are TSV by default (JSON behind --format json) and deterministic
under a fixed seed.  Exit code 0 iff every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import homotopy as hom
from . import operators as ops
from .complexes import (
    VARIANTS,
    ComplexError,
    cohomology_dims,
    grade_range,
    table1_rows,
    verify_theorem1,
)
from .connectivity import (
    contraction_case_failures,
    roundtrip_failures,
    spqr,
    tree_to_json,
)
from .generate import basis_keys, build_basis, graded_bases
from .graphs import GRAPH6_MAX_VERTICES, graph6_decode, graph6_encode
from .sampling import biconnected_samples, nontri_samples


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tsv(rows: list[list], header: list[str]) -> list[str]:
    return ["\t".join(header)] + ["\t".join(str(x) for x in r) for r in rows]


def _check_loops(g: int, option: str = "--loops") -> None:
    rs = grade_range(g)
    if not rs:
        raise ValueError(f"{option} {g}: no vertex count carries loop order {g}; "
                         "use a loop order of at least 2")
    if rs[-1] > GRAPH6_MAX_VERTICES:
        raise ValueError(f"{option} {g}: its top grade has {rs[-1]} vertices, more "
                         f"than graph6 encodes ({GRAPH6_MAX_VERTICES}); use a loop "
                         f"order of at most {GRAPH6_MAX_VERTICES // 2 + 1}")


def cmd_enumerate(args) -> int:
    _check_loops(args.loops)
    rs = grade_range(args.loops)
    if args.vertices not in rs:
        raise ValueError(f"--vertices {args.vertices}: loop order {args.loops} "
                         f"needs {rs.start}..{rs.stop - 1} vertices")
    basis = build_basis(args.loops, args.vertices, args.variant)
    _emit([k.decode("ascii") for k in basis.keys], args.out)
    return 0


def cmd_dims(args) -> int:
    _check_loops(args.loops)
    bases = [graded_bases(args.loops, v) for v in VARIANTS]
    rows = [[args.loops, r] + [len(b[r]) for b in bases] for r in grade_range(args.loops)]
    if args.format == "json":
        doc = [
            {"loops": g, "vertices": r, "full": a, "biconnected": b, "triconnected": c}
            for g, r, a, b, c in rows
        ]
        _emit([json.dumps(doc, indent=2)], args.out)
    else:
        _emit(_tsv(rows, ["loops", "vertices", "full", "biconnected", "triconnected"]), args.out)
    return 0


def cmd_cohomology(args) -> int:
    _check_loops(args.loops)
    rep = cohomology_dims(args.loops, args.variant)
    if args.format == "json":
        doc = {
            "loops": rep.loop_order,
            "variant": rep.variant,
            "rows": [r._asdict() for r in rep.rows],
            "dims_by_degree": {str(k): v for k, v in sorted(rep.table_n2.items())},
        }
        _emit([json.dumps(doc, indent=2)], args.out)
    else:
        rows = [
            [rep.loop_order, r.vertex_count, r.degree_n0, r.degree_n2,
             r.dim_basis, r.rank_out, r.rank_in, r.dim_h]
            for r in rep.rows
        ]
        _emit(
            _tsv(rows, ["loops", "vertices", "degree_n0", "degree_n2",
                        "dim_basis", "rank_out", "rank_in", "dim_H"]),
            args.out,
        )
    return 0


def cmd_spqr(args) -> int:
    g = graph6_decode(args.graph6)
    _emit([tree_to_json(spqr(g))], args.out)
    return 0


def cmd_table1(args) -> int:
    if args.max_vertices < 6:
        raise ValueError(f"--max-vertices {args.max_vertices}: the table starts "
                         "at 6 vertices")
    top = grade_range(10)[-1]
    if args.max_vertices > top:
        raise ValueError(f"--max-vertices {args.max_vertices}: loop order 10 has "
                         f"no class above {top} vertices")
    rows = table1_rows(args.max_vertices)
    if args.format == "json":
        doc = [
            {"vertices": r, "full": a, "biconnected": b, "triconnected": c}
            for r, a, b, c in rows
        ]
        _emit([json.dumps(doc, indent=2)], args.out)
    else:
        out_rows = []
        for r, full, bi, tri in rows:
            pb = f"{bi * 100 // full}%" if full else "-"
            pt = f"{tri * 100 // full}%" if full else "-"
            out_rows.append([r, full, f"{bi} ({pb})", f"{tri} ({pt})"])
        _emit(_tsv(out_rows, ["vertices", "full", "biconnected", "triconnected"]), args.out)
    return 0


def _verify_d2(args) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for g in range(3, args.max_loops + 1):
        for variant in VARIANTS:
            try:
                cohomology_dims(g, variant)
                lines.append(f"d2\t{g}\t{variant}\tPASS")
            except ComplexError as exc:  # carries the witness
                ok = False
                lines.append(f"d2\t{g}\t{variant}\tFAIL\t{exc}")
    return ok, lines


def _verify_theorem1(args) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for g in range(3, args.max_loops + 1):
        rep = verify_theorem1(g)
        dims = {v: r.dims_by_degree() for v, r in rep.reports.items()}
        lines.append(f"theorem1\t{g}\t{'PASS' if rep.passed else 'FAIL'}\t{dims}")
        ok &= rep.passed
    return ok, lines


# the identities of each suite, each checked on the basis of its variant
# up to --max-loops
IDENTITY_SUITES = {
    "kwz": [("square_zero", "full")],
    "zivkovic": [
        ("delta0_D", "full"), ("D_squared", "full"), ("nabla_D", "full"),
        ("Dbar_squared", "biconnected"), ("nabla_Dbar", "biconnected"),
    ],
    "deltak": [("delta3", "biconnected"), ("delta4", "biconnected")],
}


def _verify_identities(args) -> tuple[bool, list[str]]:
    """One line per identity; a failing one names its first failed sample
    and the least term that did not cancel."""
    suite = IDENTITY_SUITES[args.suite]
    keys = {variant: basis_keys(args.max_loops, variant) for _, variant in suite}
    lines = []
    ok = True
    for name, variant in suite:
        rep = ops.identity_suite(name, keys[variant])
        line = f"{args.suite}\t{name}\t{rep['passed']}/{rep['samples']}\t"
        if rep["failures"]:
            ok = False
            sample, (term, coeff) = rep["failures"][0]
            line += f"FAIL\t{sample}\t{coeff}*{term}"
        else:
            line += "PASS"
        lines.append(line)
    return ok, lines


def _pool_samples(args) -> list:
    """`nontri_samples` for the options; an empty pool names --max-loops."""
    try:
        return nontri_samples(args.samples, args.seed, args.max_loops)
    except ValueError as exc:
        raise ValueError(f"--max-loops {args.max_loops}: {exc}") from None


def _verify_homotopy(args) -> tuple[bool, list[str]]:
    samples = _pool_samples(args)
    failures = hom.shuffled_leaf_failures(samples, args.seed + 1)
    passed = len(samples) - len(failures)
    lines = [f"homotopy\t{'FAIL' if failures else 'PASS'} {passed}/{len(samples)}"]
    for lg, rep in failures:
        lines.append(
            f"homotopy\tFAIL\t{graph6_encode(lg.graph).decode()}\t"
            f"k={lg.label_count}\tfirst={lg.leaf_ids[0]}\tN={rep['n_value']}"
        )
    return not failures, lines


def _verify_spqr_roundtrip(args) -> tuple[bool, list[str]]:
    """A failing run names its first sample that does not recompose."""
    samples = biconnected_samples(args.samples, args.seed)
    failures = roundtrip_failures(samples)
    line = (f"spqr-roundtrip\t{'FAIL' if failures else 'PASS'}\t"
            f"{len(samples) - len(failures)}/{len(samples)}")
    if failures:
        line += f"\t{graph6_encode(failures[0]).decode()}"
    return not failures, [line]


def _verify_contraction_case(args) -> tuple[bool, list[str]]:
    """A failing run names its first failed sample, edge position and
    predicted case."""
    samples = _pool_samples(args)
    checked, failures = contraction_case_failures(samples)
    line = (f"contraction-case\t{'FAIL' if failures else 'PASS'}\t"
            f"{checked - len(failures)}/{checked} edges")
    if failures:
        g, j, case = failures[0]
        line += f"\t{graph6_encode(g).decode()}\tedge={j}\t{case}"
    return not failures, [line]


VERIFIERS = {
    "d2": _verify_d2,
    "theorem1": _verify_theorem1,
    **{suite: _verify_identities for suite in IDENTITY_SUITES},
    "homotopy": _verify_homotopy,
    "spqr-roundtrip": _verify_spqr_roundtrip,
    "contraction-case": _verify_contraction_case,
}


def cmd_verify(args) -> int:
    if args.max_loops < 3:
        raise ValueError(f"--max-loops {args.max_loops}: the suites start at "
                         "loop order 3")
    _check_loops(args.max_loops, "--max-loops")
    if args.samples < 1:
        raise ValueError(f"--samples {args.samples}: need at least one sample")
    ok, lines = VERIFIERS[args.suite](args)
    _emit(lines, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphcomplex",
        description="Exact workbench for the graph complex and its "
        "biconnected/triconnected quotients.",
    )
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--out", help="write the report to this path")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="graph6 stream of one basis")
    sp.add_argument("--loops", type=int, required=True)
    sp.add_argument("--vertices", type=int, required=True)
    sp.add_argument("--variant", choices=VARIANTS, default="full")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("dims", help="basis dimension table for one loop order")
    sp.add_argument("--loops", type=int, required=True)
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("cohomology", help="exact cohomology dimensions")
    sp.add_argument("--loops", type=int, required=True)
    sp.add_argument("--variant", choices=VARIANTS, default="full")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("spqr", help="SPQR tree of a graph6 graph as JSON")
    sp.add_argument("graph6")
    sp.set_defaults(func=cmd_spqr)

    sp = sub.add_parser("table1", help="loop-order-10 dimension table")
    sp.add_argument("--max-vertices", type=int, default=8)
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("suite", choices=sorted(VERIFIERS))
    sp.add_argument("--max-loops", type=int, default=5)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
