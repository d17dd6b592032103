"""Exact-arithmetic workbench for the graph complex, its biconnected and
triconnected quotients, SPQR trees, dual operators, and the filtration
homotopy."""

from .canon import CanonicalClass, aut_group_order, canonical_form
from .complexes import (
    CohomologyReport,
    cohomology_dims,
    differential_matrix,
    grade_range,
    table1_rows,
    verify_theorem1,
)
from .connectivity import (
    SpqrNode,
    SpqrTree,
    VirtualEdge,
    connectivity_class,
    contraction_case,
    edge_owner,
    r_edge_weight,
    recompose,
    separation_pairs,
    spqr,
)
from .formal import FormalSum, singleton
from .generate import Basis, build_basis
from .graphs import (
    GraphError,
    SimpleGraph,
    add_edge,
    build_graph,
    complete_graph,
    contract_edge,
    graph6_decode,
    graph6_encode,
    is_connected,
)
from .homotopy import (
    LabeledGraph,
    d_prime,
    h_homotopy,
    homotopy_check,
    n_value,
    to_labeled,
)
from .matrixops import SparseRationalMatrix, exact_rank
from .operators import (
    apply_D,
    apply_Dbar,
    apply_d,
    apply_delta0,
    apply_delta_k,
    apply_nabla,
    apply_pi,
    identity_suite,
    pairing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
