from __future__ import annotations

import pytest
from hypothesis import strategies as st

from recpoly import MultiPoly, closedform, engines, families, recurrence
from recpoly.ring import DEGREE_GUARD

VARS = ("x", "y", "z")


@st.composite
def term_maps(draw, variables: tuple[str, ...] = VARS, max_terms: int = 6,
              max_exp: int = 4, coeff_bound: int = 10**6, near_guard: bool = False):
    """Exponent-vector -> coefficient maps, the input MultiPoly's constructor takes.

    With ``near_guard`` an exponent may also be drawn just below
    DEGREE_GUARD.  Exponents are clipped so that every vector's total degree
    stays within the guard.
    """
    exponent = st.integers(min_value=0, max_value=max_exp)
    if near_guard:
        exponent = exponent | st.integers(min_value=DEGREE_GUARD - 2, max_value=DEGREE_GUARD)
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        left = DEGREE_GUARD
        exps = []
        for _ in variables:
            exps.append(min(draw(exponent), left))
            left -= exps[-1]
        terms[tuple(exps)] = draw(st.integers(min_value=-coeff_bound, max_value=coeff_bound))
    return terms


def multipolys(variables: tuple[str, ...] = VARS, **kwargs):
    return term_maps(variables, **kwargs).map(lambda terms: MultiPoly(variables, terms))


@st.composite
def integer_points(draw, variables: tuple[str, ...] = VARS, bound: int = 9):
    return {v: draw(st.integers(min_value=-bound, max_value=bound)) for v in variables}


@pytest.fixture
def ring_products(monkeypatch):
    """A one-item list holding the number of ring products so far: the
    MultiPoly.__mul__ calls plus each product the engines add into a sum in
    place (one ``(scale, a, b)`` item of an ``_addmul`` call)."""
    calls = [0]
    original = MultiPoly.__mul__

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    def counted(products):
        for product in products:
            calls[0] += 1
            yield product

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    for module in (closedform, engines, families, recurrence):
        fused = module._addmul

        def counting_fused(acc, variables, products, fused=fused):
            return fused(acc, variables, counted(products))

        monkeypatch.setattr(module, "_addmul", counting_fused)
    return calls
