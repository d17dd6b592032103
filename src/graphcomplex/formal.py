"""Exact rational linear combinations of canonical graph classes."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .canon import _swap_automorphisms, canonical_form
from .graphs import SimpleGraph


class FormalSum:
    """Finite map canon_key -> nonzero Fraction; orientation-zero classes
    are never stored.

    ``add_graph`` drops a graph whose class is zero.  Before it canonizes a
    graph, it looks for an odd automorphism that swaps one or two pairs of
    vertices (``canon._swap_automorphisms``), a test without search.  The
    test is a sufficient condition only: a graph it flags is zero and is
    dropped uncanonized, and every other graph is canonized as before, so
    the canonizer's zero flag decides the rest.  Keys, signs and sums are
    the same either way."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[bytes, Fraction] | None = None):
        self.terms: dict[bytes, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                self.add_term(key, coeff)

    def add_term(self, key: bytes, coeff: Fraction | int) -> None:
        coeff = Fraction(coeff)
        if not coeff:
            return
        new = self.terms.get(key, Fraction(0)) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def add_graph(
        self,
        g: SimpleGraph,
        coeff: Fraction | int = 1,
        colors: Sequence[int] | None = None,
    ) -> None:
        """Canonicalize a concrete graph (its edge sequence is the
        orientation) and accumulate; zero classes are dropped, those with
        an odd swap of one or two vertex pairs before canonization.
        Optional vertex colors produce color-preserving (labeled) classes."""
        if any(odd for _, odd in _swap_automorphisms(g.n, g.adj, colors)):
            return
        cf = canonical_form(g, colors)
        if cf.is_zero:
            return
        self.add_term(cf.canon_key, Fraction(coeff) * cf.sign_to_canon)

    def __iadd__(self, other: "FormalSum") -> "FormalSum":
        for key, coeff in other.terms.items():
            self.add_term(key, coeff)
        return self

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(dict(self.terms))
        out += other
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scaled(-1)

    def scaled(self, factor: Fraction | int) -> "FormalSum":
        factor = Fraction(factor)
        if not factor:
            return FormalSum()
        return FormalSum({k: c * factor for k, c in self.terms.items()})

    def coefficient(self, key: bytes) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def keys(self) -> Iterable[bytes]:
        return self.terms.keys()

    def __iter__(self) -> Iterator[tuple[bytes, Fraction]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "FormalSum(0)"
        bits = [f"{c}*{k!r}" for k, c in sorted(self.terms.items())]
        return "FormalSum(" + " + ".join(bits) + ")"


def singleton(g: SimpleGraph, coeff: Fraction | int = 1) -> FormalSum:
    out = FormalSum()
    out.add_graph(g, coeff)
    return out
