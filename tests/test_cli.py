"""Command-line interface: outputs, formats, exit codes."""

import json

import pytest

from graphcomplex import canonical_form, graph6_encode
from graphcomplex.cli import main

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


def test_cohomology_output(capsys):
    assert main(["cohomology", "--loops", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    by_r = {line.split("\t")[1]: line.split("\t") for line in lines[1:]}
    assert by_r["4"][-1] == "1"  # dim_H = 1 at r = 4

    assert main(["--format", "json", "cohomology", "--loops", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims_by_degree"] == {"0": 1}


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
    ],
)
def test_bad_input_exits_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_spqr_disconnected_input_message(capsys):
    assert main(["spqr", "D??"]) == 2
    assert "SPQR tree requires a connected graph" in capsys.readouterr().err


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--loops", "3", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
