"""Non-iterative formulas for the delta-initial sequence P^(k-1).

Two symbolic routes are provided: the multinomial sum over weighted
compositions (solutions of i_1 + 2 i_2 + ... + k i_k = n) and the
determinant of the banded upper-Hessenberg matrix with first row
(c_1, ..., c_n) and unit subdiagonal.  A fraction-free integer determinant
(Bareiss elimination) over the literal matrix at an integer point serves as
an oracle that is independent of the recurrence.

The generalized multivariate Lucas sequence (coefficients
c_i = (-1)^(i+1) x_i, delta initials) gets both an iterative and an
explicit-sign closed form.  The published closed form carries the sign
exponent k + i_1 + ... + i_k, which contradicts its own recurrence already
at k = 2; expanding the coefficient product forces n + i_1 + ... + i_k, so
that is the default, with the published variant kept for regression tests.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Optional, Sequence

from .errors import StructuralError
from .recurrence import RecurrenceSpec, iterate_terms
from .ring import MultiPoly


def weighted_compositions(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All (i_1, ..., i_k) with i_1 + 2 i_2 + ... + k i_k = n.

    Emitted exactly once each, in ascending lexicographic order on the count
    tuples.  Each call returns an independent iterator.
    """
    if k < 1:
        raise StructuralError(f"k must be >= 1, got {k}")
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")

    def rec(pos: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if pos == k:
            # Last slot has weight k.
            if remaining % k == 0:
                yield (remaining // k,)
            return
        for count in range(remaining // pos + 1):
            for rest in rec(pos + 1, remaining - pos * count):
                yield (count, *rest)

    yield from rec(1, n)


def multinomial(counts: Sequence[int]) -> int:
    """(i_1 + ... + i_k)! / (i_1! ... i_k!) as an exact integer."""
    total = 0
    result = 1
    for c in counts:
        total += c
        result *= math.comb(total, c)
    return result


def multinomial_term(coeffs: Sequence[MultiPoly], n: int,
                     power_cache: Optional[dict] = None) -> MultiPoly:
    """P^(k-1)_{n+k-1} as the multinomial sum over weighted compositions.

    ``power_cache`` may be shared across calls with the same coefficient
    list to reuse coefficient powers.
    """
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    k = len(coeffs)
    variables = coeffs[0].variables
    if power_cache is None:
        power_cache = {}

    def power(i: int, e: int) -> MultiPoly:
        # power_cache[i][e] is coeffs[i]**e, grown one exponent at a time.
        powers = power_cache.setdefault(i, [MultiPoly.const(variables, 1)])
        while len(powers) <= e:
            powers.append(powers[-1] * coeffs[i])
        return powers[e]

    total = MultiPoly.zero(variables)
    for counts in weighted_compositions(k, n):
        term = MultiPoly.const(variables, multinomial(counts))
        for i, c in enumerate(counts):
            if c:
                term = term * power(i, c)
        total = total + term
    return total


def hessenberg_matrix(coeffs: Sequence[MultiPoly], n: int) -> list[list[MultiPoly]]:
    """The n x n banded Toeplitz Hessenberg matrix with first row (c_1..c_n).

    Entry (i, j) is c_{j-i+1} for j >= i (zero beyond the band), -1 on the
    subdiagonal, zero below.
    """
    k = len(coeffs)
    variables = coeffs[0].variables
    zero = MultiPoly.zero(variables)
    minus_one = MultiPoly.const(variables, -1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j >= i:
                row.append(coeffs[j - i] if j - i < k else zero)
            elif j == i - 1:
                row.append(minus_one)
            else:
                row.append(zero)
        rows.append(row)
    return rows


def hessenberg_det(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Symbolic determinant of an upper Hessenberg matrix.

    Laplace expansion along the last column of each leading principal minor:
    d_m = sum_r (-1)^(m-r) a[r-1][m-1] (prod of subdiagonal entries) d_{r-1},
    with d_0 = 1 (empty determinant).
    """
    n = len(matrix)
    if n == 0:
        raise StructuralError("use the coefficient-level wrapper for the empty determinant")
    variables = matrix[0][0].variables
    minors = [MultiPoly.const(variables, 1)]
    for m in range(1, n + 1):
        acc = MultiPoly.zero(variables)
        subdiag_prod = MultiPoly.const(variables, 1)
        # r runs downward so the subdiagonal product can grow incrementally.
        for r in range(m, 0, -1):
            entry = matrix[r - 1][m - 1]
            if not entry.is_zero():
                term = entry * subdiag_prod * minors[r - 1]
                if (m - r) % 2:
                    term = -term
                acc = acc + term
            if r > 1:
                subdiag_prod = subdiag_prod * matrix[r - 1][r - 2]
        minors.append(acc)
    return minors[n]


def hessenberg_det_symbolic(coeffs: Sequence[MultiPoly], n: int) -> MultiPoly:
    """P^(k-1)_{n+k-1} as the n x n symbolic Hessenberg determinant; n = 0 gives 1."""
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    variables = coeffs[0].variables
    if n == 0:
        return MultiPoly.const(variables, 1)
    return hessenberg_det(hessenberg_matrix(coeffs, n))


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    if any(len(row) != n for row in m):
        raise StructuralError("matrix must be square")
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
            for c in range(col + 1, n):
                m[r][c] = (pivot * m[r][c] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def hessenberg_det_numeric_oracle(coeffs: Sequence[MultiPoly], n: int,
                                  point: Mapping[str, int]) -> int:
    """Evaluate the literal n x n matrix at an integer point and take its
    determinant by Bareiss elimination (deliberately not via the recurrence)."""
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    matrix = hessenberg_matrix(coeffs, n)
    return bareiss_det([[entry.eval_int(point) for entry in row] for row in matrix])


# -- generalized multivariate Lucas sequence ---------------------------------


def _lucas_variables(k: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, k + 1))


def generalized_lucas_spec(k: int) -> RecurrenceSpec:
    """Recurrence with c_i = (-1)^(i+1) x_i and delta initials at k-1."""
    if k < 2:
        raise StructuralError(f"generalized Lucas sequences need k >= 2, got {k}")
    variables = _lucas_variables(k)
    coeffs = []
    for i in range(1, k + 1):
        c = MultiPoly.var(f"x{i}", variables)
        coeffs.append(c if i % 2 == 1 else -c)
    initial = [MultiPoly.const(variables, 1 if j == k - 1 else 0) for j in range(k)]
    return RecurrenceSpec.make(variables, coeffs, initial)


def generalized_lucas(k: int, n: int) -> MultiPoly:
    """n-th generalized Lucas polynomial in k variables, by iteration."""
    return iterate_terms(generalized_lucas_spec(k), n)[n]


def generalized_lucas_closed_form(k: int, n: int, sign: str = "derived") -> MultiPoly:
    """n-th generalized Lucas polynomial from the explicit multinomial sum.

    ``sign='derived'`` uses (-1)^(m + i_1 + ... + i_k) where m = n - k + 1,
    the exponent forced by expanding prod((-1)^(j+1) x_j)^(i_j).
    ``sign='printed'`` uses the published (-1)^(k + i_1 + ... + i_k), which
    disagrees with the recurrence (first at k = 2, n = 2) and exists only
    for the regression test documenting that.
    """
    if k < 2:
        raise StructuralError(f"generalized Lucas sequences need k >= 2, got {k}")
    if sign not in ("derived", "printed"):
        raise StructuralError(f"unknown sign convention {sign!r}")
    variables = _lucas_variables(k)
    if n < k - 1:
        return MultiPoly.zero(variables)
    m = n - k + 1
    total = MultiPoly.zero(variables)
    for counts in weighted_compositions(k, m):
        coeff = multinomial(counts)
        parity = (m if sign == "derived" else k) + sum(counts)
        if parity % 2:
            coeff = -coeff
        exps = tuple(counts)
        total = total + MultiPoly(variables, {exps: coeff})
    return total
