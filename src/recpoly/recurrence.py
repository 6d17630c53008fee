"""Order-k recurrences over the polynomial ring.

A :class:`RecurrenceSpec` bundles the order, the coefficient polynomials
c_1..c_k, and the initial window P_0..P_{k-1}.  The characteristic
polynomial X^k - c_1 X^{k-1} - ... - c_k is derived from the coefficients
and never stored.

Engines here are plain iteration and Fiduccia's method (SIAM J. Comput.
14(1), 1985) on remainders modulo the characteristic polynomial chi: a term
ends in an exact bilinear form, not a last squaring, and a table shifts
X^n mod chi one row at a time.  The row streams :func:`iter_terms` and
:func:`companion_terms` have no end: whoever reads them sets the bound, so a
row is formed only when it is drawn.  Symbolic terms can grow quickly for
multivariate coefficients; run an engine inside
:func:`recpoly.ring.term_budget` to make it fail cleanly once any sum or
product it builds exceeds a term count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .errors import StructuralError
from .ring import MultiPoly, _addmul, _charged


@dataclass(frozen=True)
class RecurrenceSpec:
    """One order-k recurrence: P_{n+k} = sum_i c_i P_{n+k-i}."""

    variables: tuple[str, ...]
    order: int
    coeffs: tuple[MultiPoly, ...]
    initial: tuple[MultiPoly, ...]

    def __post_init__(self):
        if self.order < 1:
            raise StructuralError(f"order must be >= 1, got {self.order}")
        if len(self.coeffs) != self.order:
            raise StructuralError(
                f"expected {self.order} coefficients, got {len(self.coeffs)}"
            )
        if len(self.initial) != self.order:
            raise StructuralError(
                f"expected {self.order} initial terms, got {len(self.initial)}"
            )
        for p in (*self.coeffs, *self.initial):
            if p.variables != self.variables:
                raise StructuralError(
                    f"member polynomial over {list(p.variables)} does not match "
                    f"spec variables {list(self.variables)}"
                )

    @classmethod
    def make(cls, variables: Sequence[str], coeffs: Sequence[MultiPoly],
             initial: Sequence[MultiPoly]) -> "RecurrenceSpec":
        return cls(tuple(variables), len(coeffs), tuple(coeffs), tuple(initial))

    def with_initial(self, initial: Sequence[MultiPoly]) -> "RecurrenceSpec":
        return RecurrenceSpec(self.variables, self.order, self.coeffs, tuple(initial))


def iter_terms(spec: RecurrenceSpec) -> Iterator[MultiPoly]:
    """Yield P_0, P_1, ... without end by direct iteration, one recurrence
    step per item, holding only the last k terms.  The reader sets the bound."""
    variables = spec.variables
    coeffs = [(i, c.terms) for i, c in enumerate(spec.coeffs, start=1) if c.terms]
    window = deque(spec.initial, maxlen=spec.order)
    yield from spec.initial
    while True:
        acc: dict[int, int] = {}
        _addmul(acc, variables, [(1, c, window[-i].terms) for i, c in coeffs])
        nxt = _charged(variables, acc)
        window.append(nxt)
        yield nxt


def iterate_terms(spec: RecurrenceSpec, n_max: int) -> list[MultiPoly]:
    """Return [P_0, ..., P_{n_max}] by direct iteration of the recurrence."""
    if n_max < 0:
        raise StructuralError(f"n_max must be >= 0, got {n_max}")
    return list(islice(iter_terms(spec), n_max + 1))


def _reduce(poly: list[dict[int, int]], spec: RecurrenceSpec) -> list[dict[int, int]]:
    """Reduce a list of term maps (constant term first, accumulated in
    place) modulo the characteristic polynomial, using
    X^k = sum_i c_i X^(k-i)."""
    k = spec.order
    for d in range(len(poly) - 1, k - 1, -1):
        top = poly[d]
        if top:
            for i, c in enumerate(spec.coeffs, start=1):
                _addmul(poly[d - i], spec.variables, ((1, top, c.terms),))
    return poly[:k]


def _shift(r: list[dict[int, int]], spec: RecurrenceSpec) -> list[dict[int, int]]:
    """X*R mod chi, one product per coefficient; R is left as it was."""
    return _reduce([{}, *map(dict, r[:-1]), r[-1]], spec)


def _read(r: list[dict[int, int]], spec: RecurrenceSpec) -> dict[int, int]:
    """L(R) = sum_i r_i P_i.  L(X^m) = P_m and L vanishes on multiples of chi
    (they are shifts of the recurrence), so L(X^m mod chi) = P_m exactly."""
    acc: dict[int, int] = {}
    _addmul(acc, spec.variables, [(1, ri, p.terms) for ri, p in zip(r, spec.initial)])
    return acc


def companion_terms(spec: RecurrenceSpec) -> Iterator[MultiPoly]:
    """Yield P_0, P_1, ... without end as L(R_n) with R_0 = 1 and R_{n+1} =
    X*R_n mod chi: one shift-and-reduce and one read per row, at most 2k
    products.  A row's shift is formed only when that row is drawn."""
    r = [{0: 1}] + [{} for _ in range(spec.order - 1)]
    while True:
        yield _charged(spec.variables, _read(r, spec))
        r = _shift(r, spec)


def companion_power_term(spec: RecurrenceSpec, n: int) -> MultiPoly:
    """P_n by Fiduccia's method: R(X) = X^h mod chi(X) for n = 2h + b, then
    P_n = L(X^b R^2) = sum_j r_j L(X^(j+b) R) with the read :func:`_read`.

    R is built by left-to-right binary powering: each bit squares R and
    reduces it, and a set bit multiplies by X (a shift plus one reduction).
    A step costs O(k^2) ring products, and any initial window works.  The
    finish shifts R at most k times and multiplies k pairs of half-size
    factors, where squaring R would take k(k+1)/2 and a full-size reduction.
    """
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    k = spec.order
    if n < k:
        return spec.initial[n]
    variables = spec.variables
    # R as term maps: 1, then X mod chi for the leading bit of h.
    h, r = n >> 1, [{0: 1}] + [{} for _ in range(k - 1)]
    r = _shift(r, spec) if h else r
    for bit in bin(h)[3:]:
        # R^2 from the products r_i r_j with i <= j: cross terms count twice.
        nonzero = [i for i in range(k) if r[i]]
        sq: list[dict[int, int]] = [{} for _ in range(2 * k - 1)]
        for a, i in enumerate(nonzero):
            for j in nonzero[a + 1:]:
                _addmul(sq[i + j], variables, ((2, r[i], r[j]),))
            _addmul(sq[2 * i], variables, ((1, r[i], r[i]),))
        if bit == "1":
            sq.insert(0, {})
        r = _reduce(sq, spec)

    def products():
        t = _shift(r, spec) if n & 1 else r
        for j, rj in enumerate(r):
            if j:
                t = _shift(t, spec)
            if rj:
                yield 1, rj, _read(t, spec)

    acc: dict[int, int] = {}
    _addmul(acc, variables, products())
    return _charged(variables, acc)
