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

import itertools
import math
from collections import deque
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .errors import StructuralError
from .recurrence import RecurrenceSpec, iterate_terms
from .ring import MultiPoly, _addmul, _charged, check_budget


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

    The compositions are walked as a tree: the counts i_k, ..., i_3 fix an
    outer node, which carries the prefix product prod_{j>=3} c_j^(i_j) and
    leaves n_1 = i_1 + 2 i_2 to the inner sum over i_2.  The inner sum
    steps its multinomial coefficient M exactly from one i_2 to the next and
    collects sum M c_2^(i_2) c_1^(i_1) in one node map, in one kernel call
    with M as each product's scale; the node map then takes one fused
    product with the prefix into the total.

    ``power_cache`` may be shared across calls with the same coefficient
    list to reuse coefficient powers.
    """
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    k = len(coeffs)
    variables = coeffs[0].variables
    if power_cache is None:
        power_cache = {}

    def powers(i: int, e: int) -> list[dict[int, int]]:
        # power_cache[i][e] is the term map of coeffs[i]**e, grown one
        # exponent at a time up to at least e.
        row = power_cache.setdefault(i, [{0: 1}])
        while len(row) <= e:
            nxt: dict[int, int] = {}
            _addmul(nxt, variables, ((1, row[-1], coeffs[i].terms),))
            row.append(nxt)
        return row

    def node_products(n1: int, rest: tuple[int, ...]):
        # (M, c_2^(i_2), c_1^(i_1)) for i_2 = 0, 1, ... with i_1 = n1 - 2 i_2.
        i1, s = n1, n1 + sum(rest)
        coeff = multinomial((n1, 0, *rest))
        p1, p2 = powers(0, n1), powers(1, n1 // 2)
        for i2 in range(n1 // 2 + 1):
            if i2:
                # (i1, i2 - 1) -> (i1 - 2, i2): the count total s drops by one.
                coeff = coeff * i1 * (i1 - 1) // (s * i2)
                i1 -= 2
                s -= 1
            yield coeff, p2[i2], p1[i1]

    if k == 1:
        return _charged(variables, dict(powers(0, n)[n]))
    total: dict[int, int] = {}
    # An outer node (j, n1, prefix, factor, rest) has fixed the counts
    # rest = (i_(j+2), ..., i_k), whose product is prefix * factor (None
    # stands for 1), and leaves n1 to the coefficients of weight j + 1 and
    # less.  The product is formed when the node is taken, so the stack
    # holds only shared powers and prefixes.  An explicit stack, not a
    # recursive closure: that would hold the powers in a reference cycle
    # until the next garbage collection, and overflow the recursion limit
    # at large k.
    nodes = [(k - 1, n, None, None, ())]
    while nodes:
        j, n1, prefix, factor, rest = nodes.pop()
        if factor is not None:
            if prefix is None:
                prefix = factor
            else:
                product: dict[int, int] = {}
                _addmul(product, variables, ((1, prefix, factor),))
                prefix = product
        if j > 1:
            top = n1 // (j + 1)
            row = powers(j, top)
            for count in range(top + 1):
                if count and not row[count]:
                    break  # c_(j+1) is zero, and so is every larger power
                nodes.append((j - 1, n1 - (j + 1) * count, prefix,
                              row[count] if count else None, (count, *rest)))
            continue
        # The node with the prefix None sums into the total directly.
        node = total if prefix is None else {}
        _addmul(node, variables, node_products(n1, rest))
        if prefix is not None:
            _addmul(total, variables, ((1, prefix, node),))
    return _charged(variables, total)


def hessenberg_matrix(coeffs: Sequence, n: int) -> list[list]:
    """The n x n banded Toeplitz Hessenberg matrix with first row (c_1..c_n).

    Entry (i, j) is c_{j-i+1} for j >= i (zero beyond the band), -1 on the
    subdiagonal, zero below.  The coefficients may be polynomials or
    integers; the zero and -1 entries are of the same kind.
    """
    k = len(coeffs)
    zero = coeffs[0] * 0
    minus_one = zero - 1
    band = [*coeffs[:n], *[zero] * (n - k)]
    return [[zero] * (i - 1) + [minus_one] + band[:n - i] if i else band for i in range(n)]


def _hessenberg_minors(variables: tuple[str, ...], weights: Callable[[int], Sequence[MultiPoly]],
                       depth: int) -> Iterator[MultiPoly]:
    """Yield the leading principal minors d_0, d_1, ... of an upper
    Hessenberg matrix, keeping only the last ``depth`` of them.

    Laplace expansion along the last column of each leading principal minor:
    d_m = sum_r w_r d_{r-1}, with d_0 = 1 (empty determinant) and cofactor
    weights w_r = (-1)^(m-r) a[r-1][m-1] a[r][r-1] ... a[m-1][m-2].
    ``weights(m)`` lists w_m, w_(m-1), ..., at most ``depth`` of them, and
    may end at the column's topmost nonzero entry, so the sum costs ring
    products in proportion to the band, not to m; a zero weight costs none.
    """
    recent = deque([MultiPoly.const(variables, 1)], maxlen=max(depth, 1))
    yield recent[0]
    for m in itertools.count(1):
        acc: dict[int, int] = {}
        _addmul(acc, variables,
                ((1, w.terms, d.terms) for w, d in zip(weights(m), reversed(recent))))
        recent.append(_charged(variables, acc))
        yield recent[-1]


def hessenberg_minors(matrix: Sequence[Sequence[MultiPoly]]) -> list[MultiPoly]:
    """The leading principal minors d_0..d_n of an upper Hessenberg matrix,
    by one expansion (see :func:`_hessenberg_minors`).  d_m reads only the
    leading m x m block, so it is the determinant of that block."""
    n = len(matrix)
    if n == 0:
        raise StructuralError("use the coefficient-level wrapper for the empty determinant")
    variables = matrix[0][0].variables

    def weights(m: int) -> list[MultiPoly]:
        # Row r (0-based) weighs d_r; the sign and the subdiagonal entries
        # passed fold into one running factor.
        top = next((r for r in range(m) if not matrix[r][m - 1].is_zero()), m - 1)
        factor, out = MultiPoly.const(variables, 1), []
        for r in range(m - 1, top - 1, -1):
            out.append(factor * matrix[r][m - 1])
            if r > top:
                factor = -(factor * matrix[r][r - 1])
        return out

    return list(itertools.islice(_hessenberg_minors(variables, weights, n), n + 1))


def hessenberg_det(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Symbolic determinant of an upper Hessenberg matrix."""
    return hessenberg_minors(matrix)[-1]


def band_minors(coeffs: Sequence[MultiPoly]) -> Iterator[MultiPoly]:
    """Yield P^(k-1)_{m+k-1} for m = 0, 1, ...: the leading minors of the
    Hessenberg matrix with first row (c_1, ..., c_k) and -1 below the
    diagonal, which is never built.  Each sign (-1)^(m-r) cancels against
    the m - r subdiagonal -1s, so the cofactor weights of column m are its
    band c_1, ..., c_min(m, k), ending at the last nonzero coefficient."""
    width = max((j + 1 for j, c in enumerate(coeffs) if not c.is_zero()), default=0)
    band = list(coeffs[:width])
    return _hessenberg_minors(coeffs[0].variables, lambda m: band[:m], width)


def hessenberg_det_symbolic(coeffs: Sequence[MultiPoly], n: int) -> MultiPoly:
    """P^(k-1)_{n+k-1} as the n x n symbolic Hessenberg determinant; n = 0
    gives 1.  One expansion over the band (see :func:`band_minors`)."""
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    return next(itertools.islice(band_minors(coeffs), n, None))


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination
    over the literal dense matrix.

    The textbook loop scales each row with a zero lead entry by pivot/prev
    at every column.  Those factors telescope, so such a row is left as it
    is: its current entries are the stored ones times prev / since[r], where
    ``since[r]`` is the pivot it was last brought up to date with.  A row is
    brought up to date only when it is read, and every division is exact.
    An upper Hessenberg matrix costs O(n^2) entry updates, a dense one O(n^3).
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    if any(len(row) != n for row in m):
        raise StructuralError("matrix must be square")
    since = [1] * n
    sign = 1
    prev = 1
    for col in range(n - 1):
        # A stored entry is zero exactly when its current value is.
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    since[col], since[r] = since[r], since[col]
                    sign = -sign
                    break
            else:
                return 0
        row = m[col]
        if since[col] != prev:
            s = since[col]
            row[col:] = [x * prev // s for x in row[col:]]
        pivot = row[col]
        pivot_tail = row[col + 1:]
        # A row below with a nonzero lead is rewritten from column col + 1
        # on; column col is never read again.  Bringing it up to date
        # (times prev / s) and then dividing by prev is one division by s.
        for r in range(col + 1, n):
            row = m[r]
            lead = row[col]
            if lead:
                s = since[r]
                row[col + 1:] = [(pivot * x - lead * y) // s
                                 for x, y in zip(row[col + 1:], pivot_tail)]
                since[r] = pivot
        prev = pivot
    return sign * (m[n - 1][n - 1] * prev // since[n - 1])


def hessenberg_det_numeric_oracle(coeffs: Sequence[MultiPoly], n: int,
                                  point: Mapping[str, int]) -> int:
    """Evaluate the coefficients at an integer point, build the literal
    n x n integer matrix from them and take its determinant by Bareiss
    elimination (deliberately not via the recurrence).

    Each coefficient is evaluated once.  Inside a term budget, a matrix of
    more than ``budget`` entries is refused before it is built."""
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    check_budget(n * n, "matrix entry count")
    return bareiss_det(hessenberg_matrix([c.eval_int(point) for c in coeffs], n))


# -- generalized multivariate Lucas sequence ---------------------------------


def _lucas_variables(k: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, k + 1))


def generalized_lucas_spec(k: int) -> RecurrenceSpec:
    """Recurrence with c_i = (-1)^(i+1) x_i and delta initials at k-1."""
    if k < 2:
        raise StructuralError(f"generalized Lucas sequences need k >= 2, got {k}")
    check_budget(k, "variable count")  # before the k variables, which take time quadratic in k
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
    # The compositions are distinct monomials, so one constructor call sums them.
    return _charged(variables, MultiPoly(variables, {
        counts: (-1) ** ((m if sign == "derived" else k) + sum(counts)) * multinomial(counts)
        for counts in weighted_compositions(k, m)}).terms)
