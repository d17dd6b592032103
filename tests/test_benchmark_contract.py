"""What the benchmark (`gcbench/`) reads of graphcomplex: the layer tracer
wraps public functions by name and must find every one of them, and the
worker exports the differential matrices by their fields."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layer_tracer_binds_every_traced_name():
    """Renaming or deleting a traced function fails here, not in a traced
    benchmark run."""
    path = os.pathsep.join([os.path.join(ROOT, "gcbench"), os.path.join(ROOT, "src")])
    proc = subprocess.run(
        [sys.executable, "-c", "import graphcomplex, layertrace; layertrace.Tracer().install()"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_cohomology_export_reads_integer_matrix_entries():
    """The benchmark's `cohomology` checks read each differential's `rows`,
    `cols` and `entries` through `worker.cohomology_export`; every exported
    entry is an integer literal."""
    path = os.pathsep.join([os.path.join(ROOT, "gcbench"), os.path.join(ROOT, "src")])
    script = (
        "import json, graphcomplex as gc, worker;"
        "print(json.dumps(worker.cohomology_export(gc, 5, gc.verify_theorem1(5), {})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["passed"]
    entries = 0
    for variant in out["variants"].values():
        for m in variant["matrices"].values():
            for i, j, v in m["entries"]:
                assert 0 <= i < m["rows"] and 0 <= j < m["cols"]
                assert re.fullmatch(r"-?[1-9][0-9]*", v), v
                entries += 1
    assert entries
