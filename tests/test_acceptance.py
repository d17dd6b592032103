"""Acceptance gate: the eight headline checks, all exact, zero tolerance.

Long-running checks (loop-order-10 table through 9 vertices, the 7-vertex
generation oracle) carry the `slow` marker; deselect them with
`-m "not slow"` for a quick run.
"""

from itertools import permutations

import pytest

from graphcomplex import (
    build_basis,
    cohomology_dims,
    grade_range,
    homotopy_check,
    spqr,
    to_labeled,
    verify_theorem1,
)
from graphcomplex.cli import main
from graphcomplex.complexes import VARIANTS, differential_matrix, matrix_of
from graphcomplex.connectivity import contraction_case_failures
from graphcomplex.generate import basis_keys, generate
from graphcomplex.homotopy import shuffled_leaf_failures
from graphcomplex.operators import _delta0_image, aut_order, identity_suite
from graphcomplex.sampling import biconnected_samples, nontri_samples

from conftest import check_leaf_r, check_spqr_invariants, fig1_graph, oracle_generate


# -- 1. loop-order-10 dimension table ---------------------------------------

TABLE1 = {6: (1, 1, 1), 7: (4, 4, 4), 8: (291, 291, 284), 9: (5849, 5846, 5461)}


def test_1_table1_through_eight_vertices():
    for r in (6, 7, 8):
        dims = tuple(len(build_basis(10, r, v)) for v in VARIANTS)
        assert dims == TABLE1[r], r


@pytest.mark.slow
def test_1_table1_through_nine_vertices(capsys):
    assert main(["table1", "--max-vertices", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {}
    for line in lines[1:]:
        cells = line.split("\t")
        rows[int(cells[0])] = (
            int(cells[1]),
            int(cells[2].split()[0]),
            int(cells[3].split()[0]),
        )
    assert rows == TABLE1


# -- 2. cohomology of the full complex --------------------------------------

FIGURE = {3: {0: 1}, 4: {}, 5: {0: 1}, 6: {3: 1}}


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_2_cohomology_figure(g):
    table = cohomology_dims(g, "full").dims_by_degree()
    assert table == FIGURE[g]
    for k in table:
        assert 0 <= k <= g - 3  # vanishing outside the window


def test_2_cohomology_loop_order_seven():
    assert cohomology_dims(7, "full").dims_by_degree() == {0: 1}


# -- 3. quotient quasi-isomorphisms ------------------------------------------

@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_3_theorem1(g):
    rep = verify_theorem1(g)
    assert rep.passed
    tables = [r.dims_by_degree() for r in rep.reports.values()]
    assert tables[0] == tables[1] == tables[2] == FIGURE[g]


# -- 4. chain-complex soundness ----------------------------------------------

@pytest.mark.parametrize("g", [3, 4, 5, 6])
@pytest.mark.parametrize("variant", VARIANTS)
def test_4_d_squared_zero(g, variant):
    rs = list(grade_range(g))
    bases = {r: build_basis(g, r, variant) for r in rs}
    mats = {
        r: differential_matrix(bases[r], bases[r - 1])
        for r in rs
        if r - 1 >= rs[0]
    }
    for r in rs:
        if r in mats and r + 1 in mats:
            assert mats[r].matmul(mats[r + 1]).is_zero(), (g, variant, r)


@pytest.mark.parametrize("g", [3, 4, 5])
def test_4_adjointness(g):
    """Exhaustive <delta0 a, b> = <a, d b> on small grades (g <= 4 is the
    contract; g = 5 keeps the check non-vacuous since the g = 4 bases are
    empty and g = 3 has a single class), checked as
    Delta[b', a] |Aut b'| == M[a, b'] |Aut a| on every grade pair."""
    rs = list(grade_range(g))
    for r in rs:
        if r - 1 < rs[0]:
            continue
        upper = build_basis(g, r)
        lower = build_basis(g, r - 1)
        if not len(upper) or not len(lower):
            continue
        m = differential_matrix(upper, lower)  # d: upper -> lower
        delta = matrix_of(_delta0_image, lower, upper)  # delta0: lower -> upper
        for i, up_key in enumerate(upper.keys):
            for j, low_key in enumerate(lower.keys):
                lhs = delta.get(i, j) * aut_order(up_key)
                rhs = m.get(j, i) * aut_order(low_key)
                assert lhs == rhs, (g, r, up_key, low_key)


# -- 5. operator identity suite ----------------------------------------------

def test_5_identities_on_all_small_basis_graphs():
    keys = basis_keys(4, "full")
    assert keys == list(build_basis(3, 4).keys)  # g=4 bases are all empty
    for name in ("square_zero", "delta0_D", "D_squared", "nabla_D"):
        report = identity_suite(name, keys)
        assert not report["failures"], report

    bikeys = basis_keys(4, "biconnected") + basis_keys(5, "biconnected")
    for name in ("Dbar_squared", "nabla_Dbar", "delta3", "delta4"):
        report = identity_suite(name, bikeys)
        assert not report["failures"], report


# -- 6. homotopy identity ------------------------------------------------------

def test_6_homotopy_figure_one_all_first_leaves():
    g = fig1_graph()
    leaves = to_labeled(g).leaf_ids
    for order in permutations(leaves):
        rep = homotopy_check(to_labeled(g, order))
        assert rep["passed"], order
        assert rep["n_value"] in (2, 3)


def test_6_homotopy_two_hundred_samples():
    assert not shuffled_leaf_failures(nontri_samples(200, seed=123, max_loops=6), 123)


# -- 7. SPQR structural suite ---------------------------------------------------

def test_7_spqr_roundtrip_five_hundred():
    for g in biconnected_samples(500, seed=31):
        tree = spqr(g)
        check_spqr_invariants(g, tree)
        check_leaf_r(g, tree)


def test_7_contraction_case_five_hundred():
    checked, failures = contraction_case_failures(nontri_samples(200, seed=77, max_loops=6))
    assert not failures
    assert checked >= 500


# -- 8. generator oracle equivalence ---------------------------------------------

@pytest.mark.parametrize("r", range(1, 7))
def test_8_generate_oracle_through_six_vertices(r):
    top = r * (r - 1) // 2
    for k in range(0, top + 1):
        assert generate(r, k) == oracle_generate(r, k), (r, k)


@pytest.mark.slow
@pytest.mark.parametrize("k", range(11, 22))
def test_8_generate_oracle_seven_vertices(k):
    assert generate(7, k) == oracle_generate(7, k)
