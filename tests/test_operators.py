"""Dual-side operators: gradings, pairing, and the identity suite."""

import hashlib
import random
from fractions import Fraction

import pytest

from graphcomplex import (
    FormalSum,
    apply_D,
    apply_Dbar,
    apply_d,
    apply_delta0,
    apply_delta_k,
    apply_nabla,
    apply_pi,
    build_basis,
    canonical_form,
    graph6_decode,
    graph6_encode,
    identity_suite,
    pairing,
    singleton,
)
import graphcomplex.operators as ops
from graphcomplex.generate import basis_keys, generate
from graphcomplex.graphs import component_masks
from graphcomplex.operators import IDENTITIES, aut_order

from conftest import (
    k4,
    k5,
    k33,
    loop_order,
    prism,
    random_labeling,
    unreduced_D,
    wheel,
)

OPERATORS = (apply_d, apply_delta0, apply_nabla, apply_D, apply_Dbar)


def test_d_of_k4_is_zero():
    assert apply_d(singleton(k4())).is_zero()


def test_d_lowers_vertex_count():
    x = singleton(wheel(5))
    for key, _ in apply_d(x):
        g = graph6_decode(key)
        assert g.n == 5 and loop_order(g) == 5


def test_delta0_needs_valence_four():
    assert apply_delta0(singleton(k4())).is_zero()
    # K5 is itself a zero class, so its singleton is empty; the 5-wheel
    # is a nonzero class whose hub has valence 5
    assert singleton(k5()).is_zero()
    y = apply_delta0(singleton(wheel(5)))
    assert not y.is_zero()
    for key, _ in y:
        g = graph6_decode(key)
        assert g.n == 7 and g.k == 11


def test_nabla_raises_loop_order():
    x = singleton(wheel(5))
    y = apply_nabla(x)
    assert not y.is_zero()
    for key, _ in y:
        g = graph6_decode(key)
        assert loop_order(g) == loop_order(wheel(5)) + 1
        assert g.n == wheel(5).n


def test_D_of_five_wheel_vanishes_on_classes():
    # every D image of a (6 vertices, 10 edges) graph is K5, a zero class
    assert apply_D(singleton(wheel(5))).is_zero()


def test_D_keeps_edges_and_raises_loops():
    base = graph6_decode(build_basis(5, 7).keys[0])
    y = apply_D(singleton(base))
    assert not y.is_zero()
    for key, coeff in y:
        g = graph6_decode(key)
        assert g.n == base.n - 1
        assert g.k == base.k
        assert coeff.denominator in (1, 2)


def test_pi_projects_to_connected():
    base = singleton(graph6_decode(build_basis(5, 7).keys[0]))
    y = apply_D(base)
    projected = apply_pi(y)
    for key, _ in projected:
        assert len(component_masks(graph6_decode(key))) == 1
    disconnected = {
        key for key, _ in y if len(component_masks(graph6_decode(key))) > 1
    }
    for key in disconnected:
        assert projected.coefficient(key) == 0
    assert apply_Dbar(base) == projected


def test_delta_k_rejects_small_k():
    with pytest.raises(ValueError):
        apply_delta_k(1, singleton(k4()))


def test_pairing_is_aut_weighted_and_symmetric():
    x = singleton(k4())
    assert pairing(x, x) == aut_order(canonical_form(k4()).canon_key) == 24
    y = singleton(wheel(5), Fraction(1, 3))
    assert pairing(x, y) == 0
    z = singleton(wheel(5), 2)
    assert pairing(y, z) == pairing(z, y) == Fraction(2, 3) * 10


def test_identity_suite_loop_order_five():
    keys = basis_keys(5, "full")
    assert keys  # non-vacuous: loop orders 3 and 5 contribute
    for name in ("square_zero", "nabla_squared", "delta0_D", "D_squared"):
        report = identity_suite(name, keys)
        assert not report["failures"], report
        assert report["passed"] == len(keys)


def test_biconnected_identities_loop_order_five():
    keys = basis_keys(5, "biconnected")
    for name in ("Dbar_squared", "delta3"):
        report = identity_suite(name, keys)
        assert not report["failures"], report


def test_identity_suite_detects_wrong_signs():
    """A deliberately mis-signed commutator must fail loudly."""
    key = build_basis(5, 6).keys[0]  # has a vertex of valence >= 4
    x = FormalSum()
    x.add_term(key, 1)
    wrong = apply_delta0(apply_D(x)) + apply_D(apply_delta0(x)) - apply_nabla(x)
    right = apply_delta0(apply_D(x)) - apply_D(apply_delta0(x)) - apply_nabla(x)
    assert right.is_zero()
    assert not wrong.is_zero()


def guard_keys() -> list[bytes]:
    """The biconnected classes of loop orders 3-5 and the 7-vertex
    biconnected classes of loop order 6."""
    return basis_keys(5, "biconnected") + list(build_basis(6, 7, "biconnected").keys)


def test_operator_output_digests():
    """Byte-identity guard: the digests were computed before the operator
    images and canonical data were memoized (commit 71ed499)."""
    keys = guard_keys()
    assert len(keys) == 9
    reports = "".join(repr(identity_suite(name, keys)) for name in IDENTITIES)
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "47e50d0b16994ed8c35e1eb558657a60c5fd034d4a0636595b7f6a076dc23fd4"
    )
    one_step = []
    two_step = []
    for key in keys:
        x = FormalSum()
        x.add_term(key, 1)
        for op in OPERATORS:
            y = op(x)
            one_step.append(repr(list(y)))
            two_step.append(repr(list(y)))
            two_step += [repr(list(op2(y))) for op2 in OPERATORS]
    assert hashlib.sha256("".join(one_step).encode()).hexdigest() == (
        "b71470b245ce3f2240dd2d9ada96dfd294aa74b0f5ceefa4ffe40650f0c51e61"
    )
    assert hashlib.sha256("".join(two_step).encode()).hexdigest() == (
        "70c873a906d3c1feafbaa2e63bd591365295530a61f50eb91f3084aea30c50fb"
    )


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_memoized_operators_are_linear(op):
    """op(sum c_i g_i) == sum c_i op(g_i) for random rational coefficients,
    with the g_i given as concrete graphs in random labelings."""
    rng = random.Random(17)
    graphs = [graph6_decode(k) for k in guard_keys()] + [wheel(5), wheel(6)]
    for _ in range(20):
        picks = rng.sample(graphs, rng.randint(1, 4))
        terms = [
            (random_labeling(g, rng), Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)))
            for g in picks
        ]
        x = FormalSum()
        expected = FormalSum()
        for g, c in terms:
            x.add_graph(g, c)
            expected += op(singleton(g)).scaled(c)
        assert op(x) == expected


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_memoized_operators_cancel(op):
    """An output coefficient shared by two classes cancels when the inputs
    are weighted against each other."""
    rng = random.Random(23)
    keys = guard_keys()
    for a in keys:
        ya = op(singleton(graph6_decode(a)))
        for b in keys:
            yb = op(singleton(graph6_decode(b)))
            shared = sorted(set(ya.keys()) & set(yb.keys()))
            if a == b or not shared:
                continue
            k = shared[0]
            ca = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            cb = -ca * ya.coefficient(k) / yb.coefficient(k)
            x = singleton(graph6_decode(a), ca) + singleton(graph6_decode(b), cb)
            out = op(x)
            assert out.coefficient(k) == 0 and k not in out.terms
            assert out == ya.scaled(ca) + yb.scaled(cb)


def test_mutating_an_image_does_not_change_later_calls():
    for op in OPERATORS:
        mutated = 0
        for key in guard_keys():
            x = FormalSum()
            x.add_term(key, 1)
            first = op(x)
            snapshot = dict(first.terms)
            if not snapshot:
                continue
            first.add_term(next(iter(snapshot)), 7)
            first.add_term(key, 1)
            first.terms.clear()
            assert op(x).terms == snapshot
            assert op(x.scaled(3)) == FormalSum(snapshot).scaled(3)
            mutated += 1
        assert mutated, op.__name__


# ---------------------------------------------------------------------------
# D sums one term per automorphism orbit of moves, weighted by orbit size


@pytest.mark.parametrize(
    "graph",
    [k4(), k33(), prism(), wheel(4), wheel(5), wheel(6)],
    ids=["K4", "K33", "prism", "W4", "W5", "W6"],
)
def test_D_matches_unreduced_sum_on_relabelings(graph):
    rng = random.Random(29)
    for _ in range(3):
        g = random_labeling(graph, rng)
        assert apply_D(singleton(g)) == unreduced_D(g)


def operator_round_keys() -> list[bytes]:
    """Inputs like those of one `operators` benchmark round: every non-zero
    biconnected class with 7 vertices and 11 or 12 edges, as the graph6 of
    a random labeling."""
    rng = random.Random(31)
    return [
        graph6_encode(random_labeling(graph6_decode(k), rng))
        for g in (5, 6)
        for k in build_basis(g, 7, "biconnected").keys
    ]


def test_D_matches_unreduced_sum_on_operator_round(monkeypatch):
    seen: list[bytes] = []
    image = ops._D_image

    def recording(key):
        if key not in seen:
            seen.append(key)
        return image(key)

    monkeypatch.setattr(ops, "_D_image", recording)
    keys = operator_round_keys()
    assert len(keys) == 6
    for name in IDENTITIES:
        identity_suite(name, keys)
    assert len(seen) == 26
    for key in seen:
        x = FormalSum()
        x.add_term(key, 1)
        assert apply_D(x) == unreduced_D(graph6_decode(key)), key


def test_samples_enter_as_canonical_classes(monkeypatch):
    """A sample in a random labeling gives the report of its canonical key,
    and D computes one image per distinct class it is applied to."""
    keys = operator_round_keys()
    canon_keys = [canonical_form(graph6_decode(k)).canon_key for k in keys]
    assert keys != canon_keys
    seen: list[bytes] = []
    image = ops._D_image

    def recording(key):
        seen.append(key)
        return image(key)

    monkeypatch.setattr(ops, "_D_image", recording)
    image.cache_clear()
    for name in IDENTITIES:
        assert identity_suite(name, keys) == identity_suite(name, canon_keys)
    assert all(canonical_form(graph6_decode(k)).canon_key == k for k in seen)
    assert image.cache_info().misses == len(set(seen)) == 26

    # a wrong identity names each sample as given, with the term of its
    # canonical class times the sign of the labeling
    monkeypatch.setitem(
        IDENTITIES, "wrong", lambda x: apply_delta0(apply_D(x)) + apply_D(apply_delta0(x))
    )
    given = identity_suite("wrong", keys)["failures"]
    canon = identity_suite("wrong", canon_keys)["failures"]
    assert len(given) == len(canon) == len(keys)
    for key, (sample, (term, coeff)), (_, (cterm, ccoeff)) in zip(keys, given, canon):
        assert sample == key.decode()
        assert term == cterm
        assert coeff == ccoeff * canonical_form(graph6_decode(key)).sign_to_canon


def test_D_of_zero_class_is_zero():
    """A zero class has image 0, though some of its moves give non-zero
    classes."""
    zero = sorted(generate(7, 11).zero)
    assert zero
    for key in zero:
        x = FormalSum()
        x.add_term(key, 1)
        assert apply_D(x).is_zero()
        assert unreduced_D(graph6_decode(key)).is_zero()
    for name in IDENTITIES:
        assert identity_suite(name, zero)["passed"] == len(zero)
