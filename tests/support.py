"""Shared generators for randomized cross-engine tests."""

from __future__ import annotations

import random

from recpoly import MultiPoly, RecurrenceSpec


def random_poly(rng: random.Random, variables: tuple[str, ...],
                max_terms: int = 2, max_exp: int = 1, coeff_bound: int = 3) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = rng.randint(-coeff_bound, coeff_bound)
    return MultiPoly(variables, terms)


def random_delta_spec(rng: random.Random, max_order: int = 4) -> RecurrenceSpec:
    """Random spec with delta initial conditions and small coefficient polys."""
    k = rng.randint(1, max_order)
    nvars = rng.randint(1, 2)
    variables = tuple("xyz"[:nvars])
    coeffs = [random_poly(rng, variables) for _ in range(k)]
    initial = [MultiPoly.const(variables, 1 if j == k - 1 else 0) for j in range(k)]
    return RecurrenceSpec.make(variables, coeffs, initial)


def random_general_spec(rng: random.Random, max_order: int = 4) -> RecurrenceSpec:
    spec = random_delta_spec(rng, max_order)
    initial = tuple(random_poly(rng, spec.variables) for _ in range(spec.order))
    return spec.with_initial(initial)


def random_integer_spec(rng: random.Random, max_order: int = 4,
                        bound: int = 5) -> RecurrenceSpec:
    """Delta-initial spec over zero variables with integer coefficients."""
    k = rng.randint(1, max_order)
    variables: tuple[str, ...] = ()
    coeffs = [MultiPoly.const(variables, rng.randint(-bound, bound)) for _ in range(k)]
    initial = [MultiPoly.const(variables, 1 if j == k - 1 else 0) for j in range(k)]
    return RecurrenceSpec.make(variables, coeffs, initial)


def spec_from_roots(roots_with_mults: list[tuple[int, int]]) -> RecurrenceSpec:
    """Delta-initial integer spec whose characteristic polynomial is
    prod (X - alpha)^m for the given integer roots."""
    monic = [1]
    for alpha, mult in roots_with_mults:
        for _ in range(mult):
            monic = [a - alpha * b for a, b in zip(monic + [0], [0] + monic)]
    k = len(monic) - 1
    variables: tuple[str, ...] = ()
    # X^k - c_1 X^{k-1} - ... - c_k  =>  c_i = -monic[i]
    coeffs = [MultiPoly.const(variables, -monic[i]) for i in range(1, k + 1)]
    initial = [MultiPoly.const(variables, 1 if j == k - 1 else 0) for j in range(k)]
    return RecurrenceSpec.make(variables, coeffs, initial)


def eager_bareiss_det(rows: list[list[int]]) -> int:
    """Reference: textbook Bareiss elimination, which rescales every row
    below the pivot at every column, including rows whose lead entry is
    zero (each by pivot / prev)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        for r in range(col + 1, n):
            lead = m[r][col]
            for j in range(col + 1, n):
                m[r][j] = (pivot * m[r][j] - lead * m[col][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]
