"""Command-line interface: outputs, formats, exit codes."""

import hashlib
import json
import time

import pytest

import graphcomplex.cli as cli
import graphcomplex.connectivity as connectivity
import graphcomplex.operators as ops
from graphcomplex import FormalSum, build_graph, canonical_form, contract_edge, graph6_encode
from graphcomplex.cli import _check_loops, main
from graphcomplex.complexes import ComplexError
from graphcomplex.generate import basis_keys
from graphcomplex.graphs import NonSimple
from graphcomplex.sampling import biconnected_samples, nontri_samples

from conftest import fig1_graph, k4


def test_enumerate_prints_basis(capsys):
    assert main(["enumerate", "--loops", "3", "--vertices", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.encode() == canonical_form(k4()).canon_key


def test_dims_tsv_and_json(capsys):
    assert main(["dims", "--loops", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "loops", "vertices", "full", "biconnected", "triconnected"
    ]
    row = dict(zip(lines[0].split("\t"), lines[-1].split("\t")))
    assert row["vertices"] == "4" and row["full"] == "1"

    assert main(["--format", "json", "dims", "--loops", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"loops": 3, "vertices": 4, "full": 1, "biconnected": 1,
            "triconnected": 1} in doc


def test_dims_output_digest(capsys):
    """Byte-identity guard of `dims` at loop orders 3-6; the digest was
    computed at commit 4bdc767, where each grade was generated by its own
    search."""
    for g in range(3, 7):
        assert main(["dims", "--loops", str(g)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5daa5aea03af5bab9421b0fa52c40fecc0ed2b9c1c7b6c2b67b608081bafe6e4"
    )


def test_cohomology_output(capsys):
    assert main(["cohomology", "--loops", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    by_r = {line.split("\t")[1]: line.split("\t") for line in lines[1:]}
    assert by_r["4"][-1] == "1"  # dim_H = 1 at r = 4

    assert main(["--format", "json", "cohomology", "--loops", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims_by_degree"] == {"0": 1}

    # byte-identity guard of the JSON rows at loop orders 3-6; the digest
    # was computed at commit 660fad2, where the rows were dataclasses
    for g in range(3, 7):
        assert main(["--format", "json", "cohomology", "--loops", str(g)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ce9bda987d0e84501d92982efaae64cebcacd9a0e3c0fc3d958b6a5824246796"
    )


def test_spqr_json(capsys):
    g6 = graph6_encode(fig1_graph()).decode()
    assert main(["spqr", g6]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"]["vertices"] == 10
    kinds = [n["kind"] for n in doc["nodes"]]
    assert kinds.count("R") == 3


def test_table1_small(capsys):
    assert main(["table1", "--max-vertices", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("6\t1\t1 (100%)\t1 (100%)")
    assert lines[2].startswith("7\t4\t4 (100%)\t4 (100%)")


def test_verify_suites_pass(capsys):
    assert main(["verify", "d2", "--max-loops", "4"]) == 0
    assert main(["verify", "theorem1", "--max-loops", "4"]) == 0
    assert main(["verify", "spqr-roundtrip", "--samples", "25"]) == 0
    assert main(["verify", "contraction-case", "--samples", "10",
                 "--max-loops", "5"]) == 0
    assert main(["verify", "homotopy", "--samples", "10",
                 "--max-loops", "5"]) == 0
    capsys.readouterr()


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.tsv"
    assert main(["--out", str(path), "dims", "--loops", "3"]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().startswith("loops\t")


def test_error_exit_code(capsys):
    assert main(["spqr", "not-a-graph6###"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", "--loops", "-3"], "--loops -3"),
        (["cohomology", "--loops", "1"], "--loops 1"),
        (["dims", "--loops", "0"], "--loops 0"),
        (["table1", "--max-vertices", "-5"], "--max-vertices -5"),
        (["table1", "--max-vertices", "5"], "--max-vertices 5"),
        (["enumerate", "--loops", "3", "--vertices", "40"], "--vertices 40"),
        (["enumerate", "--loops", "3", "--vertices", "1"], "--vertices 1"),
        (["enumerate", "--loops", "-1", "--vertices", "4"], "--loops -1"),
        (["verify", "homotopy", "--samples", "-1"], "--samples -1"),
        (["verify", "spqr-roundtrip", "--samples", "0"], "--samples 0"),
        (["verify", "d2", "--max-loops", "2"], "--max-loops 2"),
        (["verify", "homotopy", "--max-loops", "3"],
         "--max-loops 3: no biconnected, non-triconnected class up to loop order 3"),
        (["verify", "contraction-case", "--max-loops", "4"],
         "--max-loops 4: no biconnected, non-triconnected class up to loop order 4"),
    ],
)
def test_bad_input_exits_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", "--loops", "40"], "--loops 40: its top grade has 78 vertices"),
        (["dims", "--loops", "40"], "--loops 40: its top grade has 78 vertices"),
        (["enumerate", "--loops", "40", "--vertices", "70"], "--loops 40"),
        (["dims", "--loops", "33"], "--loops 33: its top grade has 64 vertices"),
        (["verify", "d2", "--max-loops", "40"], "--max-loops 40"),
        (["table1", "--max-vertices", "19"],
         "--max-vertices 19: loop order 10 has no class above 18 vertices"),
    ],
)
def test_loop_order_beyond_graph6_exits_2_quickly(argv, message, capsys):
    """A top grade above the 62 vertices of graph6, or a table row above
    the top grade of loop order 10, is rejected before any work; these
    commands used to run on without output."""
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_largest_loop_order_passes_the_check():
    _check_loops(32)  # top grade 62 vertices


def test_spqr_disconnected_input_message(capsys):
    assert main(["spqr", "D??"]) == 2
    assert "SPQR tree requires a connected graph" in capsys.readouterr().err


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--loops", "3", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, lines",
    [
        ("kwz", ["square_zero"]),
        ("zivkovic", ["delta0_D", "D_squared", "nabla_D", "Dbar_squared", "nabla_Dbar"]),
        ("deltak", ["delta3", "delta4"]),
    ],
)
def test_identity_suites_pass_output(suite, lines, capsys):
    """Exact report of each passing identity suite at loop order 5: one
    line per identity, in the suite's order, on the 4 basis classes."""
    assert main(["verify", suite, "--max-loops", "5"]) == 0
    assert capsys.readouterr().out == "".join(
        f"{suite}\t{name}\t4/4\tPASS\n" for name in lines
    )


def test_failed_identity_prints_witness(monkeypatch, capsys):
    """A failing identity exits 1 and names its first failed sample and the
    least term of the non-zero result."""

    def flipped(x):  # the sign of the nabla term is wrong
        return (
            ops.apply_delta0(ops.apply_D(x)) - ops.apply_D(ops.apply_delta0(x)) + ops.apply_nabla(x)
        )

    monkeypatch.setitem(ops.IDENTITIES, "delta0_D", flipped)
    assert main(["verify", "zivkovic", "--max-loops", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    keys = basis_keys(5, "full")
    nablas = []
    for key in keys:
        x = FormalSum()
        x.add_term(key, 1)
        nablas.append((key, ops.apply_nabla(x)))
    failed = [(key, y) for key, y in nablas if not y.is_zero()]
    term, coeff = min(failed[0][1].scaled(2).terms.items())
    assert lines[0] == (
        f"zivkovic\tdelta0_D\t{len(keys) - len(failed)}/{len(keys)}\tFAIL\t"
        f"{failed[0][0].decode()}\t{coeff}*{term.decode()}"
    )
    assert all(line.endswith("\tPASS") for line in lines[1:])


def test_failed_spqr_roundtrip_prints_witness(monkeypatch, capsys):
    """A failing round trip exits 1 and names its first failed sample."""
    recompose = connectivity.recompose

    def lossy(tree):  # drops the last edge of graphs with an even edge count
        g = tree.graph
        return recompose(tree) if g.k % 2 else build_graph(g.n, g.edges[:-1])

    monkeypatch.setattr(connectivity, "recompose", lossy)
    assert main(["verify", "spqr-roundtrip", "--samples", "20"]) == 1
    samples = biconnected_samples(20, 0)
    even = [g for g in samples if g.k % 2 == 0]
    assert 0 < len(even) < len(samples) and samples[0] is not even[0]
    assert capsys.readouterr().out == (
        f"spqr-roundtrip\tFAIL\t{len(samples) - len(even)}/{len(samples)}\t"
        f"{graph6_encode(even[0]).decode()}\n"
    )


def test_unknown_contraction_case_fails_with_witness(monkeypatch, capsys):
    """A case label outside P-kill, R-local, S-shrink and S-merge fails, and
    the line names the first failed sample, edge position and case."""
    monkeypatch.setattr(connectivity, "contraction_case", lambda tree, e: "bogus")
    assert main(["verify", "contraction-case", "--samples", "3", "--max-loops", "5"]) == 1
    g = nontri_samples(3, 0, 5)[0]
    j = next(j for j in range(g.k) if not isinstance(contract_edge(g, j), NonSimple))
    fields = capsys.readouterr().out.rstrip("\n").split("\t")
    assert fields[:2] == ["contraction-case", "FAIL"]
    assert fields[2].startswith("0/") and fields[2].endswith(" edges")
    assert fields[3:] == [graph6_encode(g).decode(), f"edge={j}", "bogus"]


def test_verify_d2_reports_a_complex_error_as_failed(monkeypatch, capsys):
    """A ComplexError, which carries the witness of d^2 != 0, is a FAIL line
    and exit code 1; the other checks still run."""

    def check(g, variant):
        if (g, variant) == (4, "biconnected"):
            raise ComplexError("d^2 != 0 at witness")

    monkeypatch.setattr(cli, "cohomology_dims", check)
    assert main(["verify", "d2", "--max-loops", "4"]) == 1
    assert capsys.readouterr().out == (
        "d2\t3\tfull\tPASS\nd2\t3\tbiconnected\tPASS\nd2\t3\ttriconnected\tPASS\n"
        "d2\t4\tfull\tPASS\nd2\t4\tbiconnected\tFAIL\td^2 != 0 at witness\n"
        "d2\t4\ttriconnected\tPASS\n"
    )


def test_verify_d2_crash_is_an_error_not_a_failed_check(monkeypatch, capsys):
    """Any other exception inside the check reaches `main`: exit code 2 and
    an error line, with no report."""

    def crash(g, variant):
        raise KeyError("lost class")

    monkeypatch.setattr(cli, "cohomology_dims", crash)
    assert main(["verify", "d2", "--max-loops", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "lost class" in err
