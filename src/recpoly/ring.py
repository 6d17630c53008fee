"""Sparse multivariate polynomials over arbitrary-precision integers.

A :class:`MultiPoly` is an ordered variable list plus a map from monomials
to nonzero integer coefficients (canonical sparse form, so equality of term
maps is semantic equality).  Values are immutable after construction, so
they are safe to share across threads.  Operations are not quite pure:
inside a :func:`term_budget` block, a sum or polynomial product with more
terms than the limit raises :class:`BudgetExceededError`.

A sum of products is built in one dict by one call of the fused kernel
``_addmul``, which adds sum scale * a * b over a stream of ``(scale, a, b)``
term-map triples into an accumulator in place, with no intermediate
product, scaled copy or sum.  ``MultiPoly.__mul__`` is one product into an
empty dict, and the engines, the determinant expansion and
:class:`QuadExtElem` products each build a sum in one call.  The budget
rule: ``_addmul`` checks the accumulator's term count against the limit
after each product, and ``MultiPoly.__add__`` checks each sum.  These are
the only operations that grow a term map, so every engine is bounded by them.

Each monomial key is its exponent vector packed into one int (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  The top field holds the total degree; below
it comes one field per variable in declared order, each ``_FIELD_BITS``
wide.  A field can hold twice ``DEGREE_GUARD``, so as long as every operand
has total degree at most ``DEGREE_GUARD``, the key of a product monomial is
the sum of the two keys with no carry between fields, and descending key
order is graded-lexicographic order (total degree first, then the exponents
in declared order).  The invariant is kept by the constructor, which
rejects exponent vectors over the guard, and by every product, which raises
:class:`StructuralError` before building a result whose total degree would
exceed it.  Keys are packed only by the constructors and unpacked only to
print or evaluate; no other module knows the layout.

Two polynomials interoperate only when they share the same ordered variable
list; mixing lists raises :class:`VariableMismatchError` instead of silently
unifying variables.

:class:`QuadExtElem` extends the polynomial ring by a square root of a fixed
discriminant polynomial, with multiplication reduced by the defining
relation (sqrt(delta))^2 = delta.  The identity catalog forms no extension
product (its powers follow an order-2 recurrence); the class stays public for
the power identities' sides and witnesses, and perfbench's tracer names it.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BudgetExceededError, StructuralError, VariableMismatchError

# Guard against pathological exponent growth; nothing desk-scale gets close.
DEGREE_GUARD = 10**6

_TERM_BUDGET: ContextVar[Optional[int]] = ContextVar("term_budget", default=None)


@contextmanager
def term_budget(limit: Optional[int]) -> Iterator[None]:
    """Within the block, a sum or product of more than ``limit`` terms raises
    :class:`BudgetExceededError`; ``None`` lifts the cap."""
    token = _TERM_BUDGET.set(limit)
    try:
        yield
    finally:
        _TERM_BUDGET.reset(token)


def check_budget(count: int, what: str) -> None:
    """Raise :class:`BudgetExceededError` if ``count`` exceeds the term budget."""
    limit = _TERM_BUDGET.get()
    if limit is not None and count > limit:
        raise BudgetExceededError(f"{what} {count} exceeds budget {limit}")


# A field holds the sum of two exponents at most DEGREE_GUARD without a carry.
_FIELD_BITS = (2 * DEGREE_GUARD).bit_length()
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _pack(exps: tuple[int, ...]) -> int:
    # The total degree is shifted into place once and only the nonzero
    # exponents are ORed in, so a sparse vector costs O(nonzeros) big-int
    # operations rather than one shift per variable.
    last = len(exps) - 1
    key = sum(exps) << ((last + 1) * _FIELD_BITS)
    for i, e in enumerate(exps):
        if e:
            key |= e << ((last - i) * _FIELD_BITS)
    return key


def _fields(items: Sequence) -> list[tuple]:
    """Pair the i-th item with the shift of variable i's field: the exponent
    of that variable in a key is ``key >> shift & _FIELD_MASK``."""
    last = len(items) - 1
    return [(item, (last - i) * _FIELD_BITS) for i, item in enumerate(items)]


class MultiPoly:
    """Immutable sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], int] | None = None):
        """``terms`` maps exponent vectors (one exponent per variable) to coefficients."""
        object.__setattr__(self, "variables", tuple(variables))
        canon: dict[int, int] = {}
        nvars = len(self.variables)
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise StructuralError(
                        f"exponent vector {exps!r} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise StructuralError(f"negative exponent in {exps!r}")
                if sum(exps) > DEGREE_GUARD:
                    raise StructuralError(f"total degree of {exps!r} exceeds guard {DEGREE_GUARD}")
                if coeff:
                    key = _pack(exps)
                    new = canon.get(key, 0) + coeff
                    if new:
                        canon[key] = new
                    else:
                        canon.pop(key, None)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return _raw(tuple(variables), {})

    @classmethod
    def const(cls, variables: Iterable[str], value: int) -> "MultiPoly":
        # Key 0 is the constant monomial for every variable list.
        return _raw(tuple(variables), {0: value} if value else {})

    @classmethod
    def var(cls, name: str, variables: Iterable[str]) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r} (have {list(variables)})")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> (len(self.variables) * _FIELD_BITS)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variable lists differ: {list(self.variables)} vs {list(other.variables)}"
                )
            return other
        if isinstance(other, int):
            return MultiPoly.const(self.variables, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return _charged(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.variables)
            return _raw(self.variables, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[int, int] = {}
        _addmul(terms, self.variables, ((1, self.terms, other.terms),))
        return _raw(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "MultiPoly":
        if not isinstance(m, int) or m < 0:
            raise StructuralError(f"exponent must be a non-negative integer, got {m!r}")
        return _power(self, m) if m else MultiPoly.const(self.variables, 1)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable dict payload; equality is structural

    # -- evaluation ----------------------------------------------------------

    def eval_int(self, point: Mapping[str, int]) -> int:
        """Exact integer value at an integer point."""
        for v in self.variables:
            if v not in point:
                raise VariableMismatchError(f"point is missing an assignment for variable {v!r}")
        fields = _fields([point[v] for v in self.variables])
        total = 0
        for key, coeff in self.terms.items():
            for val, shift in fields:
                e = key >> shift & _FIELD_MASK
                if e:
                    coeff *= val**e
            total += coeff
        return total

    # -- printing ------------------------------------------------------------

    def canonical(self) -> str:
        """Deterministic golden-file form.

        Terms appear in graded-lexicographic order (total degree descending,
        then lexicographic by declared variable order).  Exponent 1 and unit
        coefficients are omitted, except that the constant term always prints
        its coefficient and a *leading negative* term always prints an
        explicit coefficient (``-1*x^2`` rather than ``-x^2``) so the string
        re-parses under the expression grammar, where unary minus binds
        tighter than ``^``.  A coefficient too long to print raises
        :class:`BudgetExceededError` (see :func:`int_text`).
        """
        if not self.terms:
            return "0"
        fields = _fields(self.variables)
        pieces = []
        for idx, key in enumerate(sorted(self.terms, reverse=True)):
            coeff = self.terms[key]
            factors = []
            for name, shift in fields:
                e = key >> shift & _FIELD_MASK
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            leading_negative = idx == 0 and coeff < 0
            if mag != 1 or not factors or leading_negative:
                body = "*".join([int_text(mag)] + factors)
            else:
                body = "*".join(factors)
            if idx == 0:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.canonical()

    def __repr__(self) -> str:
        return f"MultiPoly({self.canonical()!r}, vars={list(self.variables)})"


def int_text(value: int) -> str:
    """str(value); past Python's int-to-str digit limit, BudgetExceededError."""
    try:
        return str(value)
    except ValueError:
        digits = int(value.bit_length() * math.log10(2)) + 1
        raise BudgetExceededError(f"a coefficient of about {digits} digits exceeds the "
                                  f"{sys.get_int_max_str_digits()}-digit print limit") from None


def _power(base, e: int):
    """base**e for e >= 1 by binary powering, for a MultiPoly or a QuadExtElem.

    The result starts from the lowest set bit's power, not from a unit, so
    no product by one is formed, and nothing is squared after the highest
    bit, so DEGREE_GUARD trips only on a product the result needs.
    """
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


def _raw(variables: tuple[str, ...], terms: dict[int, int]) -> MultiPoly:
    """Build from an already-canonical term map, skipping revalidation."""
    poly = MultiPoly.__new__(MultiPoly)
    object.__setattr__(poly, "variables", variables)
    object.__setattr__(poly, "terms", terms)
    return poly


def _addmul(acc: dict[int, int], variables: tuple[str, ...],
            products: Iterable[tuple[int, Mapping[int, int], Mapping[int, int]]]) -> None:
    """Add sum scale * a * b over the ``(scale, a, b)`` triples of ``products``
    into the term map ``acc`` in place.

    Product by product: one whose total degree would exceed DEGREE_GUARD
    raises :class:`StructuralError` before it touches ``acc``, and after
    each the term count of ``acc`` is checked against the term budget.  Zero
    coefficients are swept out before a count is judged, and once at the end.
    """
    shift = len(variables) * _FIELD_BITS
    limit = _TERM_BUDGET.get()
    get = acc.get
    for scale, a, b in products:
        if not (scale and a and b):
            continue
        # Without variables every key is 0 and no field can overflow.
        if shift:
            degree = (max(a) >> shift) + (max(b) >> shift)
            if degree > DEGREE_GUARD:
                _sweep(acc)
                raise StructuralError(f"product of total degree {degree} exceeds guard {DEGREE_GUARD}")
        if len(a) > len(b):
            a, b = b, a
        b = b.items()
        for ea, ca in a.items():
            if scale != 1:
                ca *= scale
            for eb, cb in b:
                key = ea + eb
                acc[key] = get(key, 0) + ca * cb
        if limit is not None and len(acc) > limit:
            _sweep(acc)
            check_budget(len(acc), "term count")
    if 0 in acc.values():
        _sweep(acc)


def _sweep(acc: dict[int, int]) -> None:
    for key in [key for key, coeff in acc.items() if not coeff]:
        del acc[key]


def _charged(variables: tuple[str, ...], terms: dict[int, int]) -> MultiPoly:
    check_budget(len(terms), "term count")
    return _raw(variables, terms)


class QuadExtElem:
    """Element u + v*sqrt(delta) of the quadratic extension of the polynomial ring.

    The square root is a free symbol reduced by its square, so equality is
    componentwise on (u, v) and multiplication follows
    (u1 + v1 s)(u2 + v2 s) = (u1 u2 + delta v1 v2) + (u1 v2 + u2 v1) s.
    """

    __slots__ = ("u", "v", "delta")

    def __init__(self, u: MultiPoly, v: MultiPoly, delta: MultiPoly):
        if not (u.variables == v.variables == delta.variables):
            raise VariableMismatchError("u, v, and delta must share one variable list")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("QuadExtElem is immutable")

    @classmethod
    def one(cls, delta: MultiPoly) -> "QuadExtElem":
        return cls(MultiPoly.const(delta.variables, 1), MultiPoly.zero(delta.variables), delta)

    def _check(self, other: "QuadExtElem") -> None:
        if self.delta != other.delta:
            raise VariableMismatchError("discriminants differ; elements live in different extensions")

    def __add__(self, other: "QuadExtElem") -> "QuadExtElem":
        self._check(other)
        return QuadExtElem(self.u + other.u, self.v + other.v, self.delta)

    def __sub__(self, other: "QuadExtElem") -> "QuadExtElem":
        self._check(other)
        return QuadExtElem(self.u - other.u, self.v - other.v, self.delta)

    def __mul__(self, other) -> "QuadExtElem":
        if isinstance(other, (int, MultiPoly)):
            return QuadExtElem(self.u * other, self.v * other, self.delta)
        self._check(other)
        variables = self.delta.variables

        def u_products():
            # u1 u2 is added to u before v1 v2 is formed, as the budget sees it.
            yield 1, self.u.terms, other.u.terms
            vv: dict[int, int] = {}
            _addmul(vv, variables, ((1, self.v.terms, other.v.terms),))
            yield 1, self.delta.terms, vv

        u: dict[int, int] = {}
        _addmul(u, variables, u_products())
        v: dict[int, int] = {}
        _addmul(v, variables, ((1, self.u.terms, other.v.terms),
                               (1, other.u.terms, self.v.terms)))
        return QuadExtElem(_charged(variables, u), _charged(variables, v), self.delta)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "QuadExtElem":
        if not isinstance(m, int) or m < 0:
            raise StructuralError(f"exponent must be a non-negative integer, got {m!r}")
        return _power(self, m) if m else QuadExtElem.one(self.delta)

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.u, -self.v, self.delta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadExtElem):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.delta == other.delta

    __hash__ = None

    def __repr__(self) -> str:
        return f"QuadExtElem(({self.u}) + ({self.v})*sqrt({self.delta}))"

    def __str__(self) -> str:
        return f"u={self.u}; v={self.v}"
