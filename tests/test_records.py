"""The package's records: value semantics, immutability, and a cold import
that loads no `dataclasses` machinery."""

import os
import subprocess
import sys

import pytest

from graphcomplex import build_basis, canonical_form, cohomology_dims, spqr, to_labeled

from conftest import fig1_graph, k4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# record name -> a fresh build of one value of it from the package's calls
RECORDS = {
    "SimpleGraph": k4,
    "CanonicalClass": lambda: canonical_form(fig1_graph()),
    "VirtualEdge": lambda: spqr(fig1_graph()).nodes[0].virtual_edges[0],
    "SpqrNode": lambda: spqr(fig1_graph()).nodes[0],
    "SpqrTree": lambda: spqr(fig1_graph()),
    "LabeledGraph": lambda: to_labeled(fig1_graph()),
    "GradeRow": lambda: cohomology_dims(5).rows[-1],
    "Basis": lambda: build_basis(5, 6),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b
    field = next(iter(type(a).__annotations__))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    if name == "Basis":
        assert len(a) == len(a.keys) == len(a.index) == 2
        assert a.index == {key: i for i, key in enumerate(a.keys)}


def test_cold_import_loads_no_dataclasses():
    """`dataclasses` pulls in `inspect` and with it `ast`, `dis` and
    `tokenize`, several milliseconds of every process start."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, graphcomplex, graphcomplex.cli;"
            " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
