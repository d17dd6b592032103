"""The filtration homotopy: d'h + hd' = N multiplication, label transport."""

from itertools import permutations

import pytest

from graphcomplex import (
    FormalSum,
    build_graph,
    d_prime,
    h_homotopy,
    homotopy_check,
    n_value,
    r_edge_weight,
    spqr,
    to_labeled,
)
from graphcomplex.graphs import GraphError
from graphcomplex import homotopy
from graphcomplex.homotopy import HomotopyError, labeled_sum, shuffled_leaf_failures
from graphcomplex.sampling import nontri_samples

from conftest import fig1_graph, k4, mid_graph


def test_to_labeled_rejects_bad_inputs():
    with pytest.raises(GraphError):
        to_labeled(k4())  # triconnected: single-node tree
    with pytest.raises(GraphError):
        to_labeled(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # 2-valent
    g = fig1_graph()
    lg = to_labeled(g)
    with pytest.raises(GraphError):
        to_labeled(g, tuple(list(lg.leaf_ids)[:-1]))  # not a permutation


def test_figure_one_n_values():
    g = fig1_graph()
    leaves = to_labeled(g).leaf_ids
    values = set()
    for first in leaves:
        order = (first,) + tuple(x for x in leaves if x != first)
        values.add(n_value(to_labeled(g, order)))
    # two leaves sit on the central S square (N = 3), one behind a P node (N = 2)
    assert values == {2, 3}


def test_figure_one_homotopy_all_leaf_orders():
    g = fig1_graph()
    leaves = to_labeled(g).leaf_ids
    for order in permutations(leaves):
        rep = homotopy_check(to_labeled(g, order))
        assert rep["passed"], (order, rep["n_value"])


def test_mid_graph_homotopy_both_orders():
    g = mid_graph()
    leaves = to_labeled(g).leaf_ids
    for order in permutations(leaves):
        assert homotopy_check(to_labeled(g, order))["passed"]


def test_homotopy_check_builds_one_tree_per_distinct_graph(monkeypatch):
    built = []

    def counting(g):
        built.append(g)
        return spqr(g)

    monkeypatch.setattr(homotopy, "spqr", counting)
    for g in (fig1_graph(), mid_graph()):
        lg = to_labeled(g)
        built.clear()
        assert homotopy_check(lg)["passed"]
        checked = list(built)
        # the same terms without a tree dict build some graphs twice
        built.clear()
        for hterm, _ in h_homotopy(lg):
            d_prime(hterm)
        for dterm, _ in d_prime(lg):
            h_homotopy(dterm)
        assert len(set(built)) < len(built)
        assert sorted(checked) == sorted(set(built) - {g})


def test_homotopy_random_sweep():
    assert not shuffled_leaf_failures(nontri_samples(60, seed=2, max_loops=6), 2)


def test_h_preserves_filtration_weight_and_loop_order():
    lg = to_labeled(fig1_graph())
    weight = r_edge_weight(lg.tree)
    for image, sign in h_homotopy(lg):
        assert sign == 1
        assert r_edge_weight(image.tree) == weight
        assert image.graph.n == lg.graph.n + 1
        assert image.graph.k == lg.graph.k + 1
        assert image.label_count == lg.label_count


def test_d_prime_contracts_only_s_edges():
    lg = to_labeled(fig1_graph())
    weight = r_edge_weight(lg.tree)
    terms = d_prime(lg)
    assert terms  # the central square has contractible S edges
    for image, sign in terms:
        assert sign in (-1, 1)
        assert r_edge_weight(image.tree) == weight
        assert image.graph.n == lg.graph.n - 1


def test_d_prime_squares_to_zero_on_samples():
    for g in nontri_samples(15, seed=4, max_loops=6):
        lg = to_labeled(g)
        total = FormalSum()
        for mid, s1 in d_prime(lg):
            for out, s2 in d_prime(mid):
                total.add_graph(out.graph, s1 * s2, colors=out.colors())
        assert total.is_zero()


def test_labeled_sum_uses_colors():
    lg = to_labeled(mid_graph())
    x = labeled_sum([(lg, 1)])
    y = FormalSum()
    y.add_graph(lg.graph, 1)
    assert list(x.keys()) != list(y.keys())


def test_too_many_labels_rejected():
    lg = to_labeled(mid_graph())
    padded = type(lg)(graph=lg.graph, tree=lg.tree, leaf_ids=lg.leaf_ids * 5)
    with pytest.raises(HomotopyError):
        padded.colors()
