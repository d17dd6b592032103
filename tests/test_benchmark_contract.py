"""The benchmark's layer tracer (`gcbench/layertrace.py`) wraps public
functions of graphcomplex by name; it must find every one of them."""

import os
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
