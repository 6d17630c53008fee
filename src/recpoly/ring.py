"""Sparse multivariate polynomials over arbitrary-precision integers.

A :class:`MultiPoly` is an ordered variable list plus a map from monomials
to nonzero integer coefficients (canonical sparse form, so equality of term
maps is semantic equality).  Values are immutable after construction and
every operation is a pure function, which makes them safe to share across
threads.

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
relation (sqrt(delta))^2 = delta.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import StructuralError, VariableMismatchError

# Guard against pathological exponent growth; nothing desk-scale gets close.
DEGREE_GUARD = 10**6

# A field holds the sum of two exponents at most DEGREE_GUARD without a carry.
_FIELD_BITS = (2 * DEGREE_GUARD).bit_length()
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _pack(exps: tuple[int, ...]) -> int:
    key = sum(exps)
    for e in exps:
        key = (key << _FIELD_BITS) | e
    return key


def _unpack(key: int, nvars: int) -> list[int]:
    exps = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        exps[i] = key & _FIELD_MASK
        key >>= _FIELD_BITS
    return exps


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

    def constant_value(self) -> int:
        """The coefficient of the constant monomial."""
        return self.terms.get(0, 0)

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
        return _raw(self.variables, terms)

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
        a, b = self.terms, other.terms
        # Without variables every key is 0 and no field can overflow.
        if self.variables and a and b:
            shift = len(self.variables) * _FIELD_BITS
            degree = (max(a) >> shift) + (max(b) >> shift)
            if degree > DEGREE_GUARD:
                raise StructuralError(f"product of total degree {degree} exceeds guard {DEGREE_GUARD}")
        terms: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = ea + eb
                new = terms.get(key, 0) + ca * cb
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return _raw(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "MultiPoly":
        if not isinstance(m, int) or m < 0:
            raise StructuralError(f"exponent must be a non-negative integer, got {m!r}")
        result = MultiPoly.const(self.variables, 1)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable dict payload; equality is structural

    # -- evaluation ----------------------------------------------------------

    def _point_values(self, point: Mapping[str, object]) -> list:
        values = []
        for v in self.variables:
            if v not in point:
                raise VariableMismatchError(f"point is missing an assignment for variable {v!r}")
            values.append(point[v])
        return values

    def eval_int(self, point: Mapping[str, int]) -> int:
        """Exact integer value at an integer point."""
        values = self._point_values(point)
        nvars = len(values)
        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, _unpack(key, nvars)):
                if e:
                    term *= val**e
            total += term
        return total

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        """Floating evaluation at a complex point (IEEE semantics, NaN propagates)."""
        values = [complex(v) for v in self._point_values(point)]
        nvars = len(values)
        items = [(_unpack(key, nvars), coeff) for key, coeff in self.terms.items()]
        # Power tables keep the rounding error at O(terms) multiplications.
        max_exp = [0] * nvars
        for exps, _ in items:
            for i, e in enumerate(exps):
                max_exp[i] = max(max_exp[i], e)
        powers = []
        for val, top in zip(values, max_exp):
            row = [1.0 + 0.0j]
            for _ in range(top):
                row.append(row[-1] * val)
            powers.append(row)
        total = 0.0 + 0.0j
        for exps, coeff in items:
            term = complex(coeff)
            for i, e in enumerate(exps):
                if e:
                    term *= powers[i][e]
            total += term
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
        tighter than ``^``.
        """
        if not self.terms:
            return "0"
        nvars = len(self.variables)
        pieces = []
        for idx, key in enumerate(sorted(self.terms, reverse=True)):
            coeff = self.terms[key]
            factors = []
            for name, e in zip(self.variables, _unpack(key, nvars)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            leading_negative = idx == 0 and coeff < 0
            if mag != 1 or not factors or leading_negative:
                body = "*".join([str(mag)] + factors)
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


def _raw(variables: tuple[str, ...], terms: dict[int, int]) -> MultiPoly:
    """Build from an already-canonical term map, skipping revalidation."""
    poly = MultiPoly.__new__(MultiPoly)
    object.__setattr__(poly, "variables", variables)
    object.__setattr__(poly, "terms", terms)
    return poly


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
        u = self.u * other.u + self.delta * self.v * other.v
        v = self.u * other.v + other.u * self.v
        return QuadExtElem(u, v, self.delta)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "QuadExtElem":
        if not isinstance(m, int) or m < 0:
            raise StructuralError(f"exponent must be a non-negative integer, got {m!r}")
        result = QuadExtElem.one(self.delta)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.u, -self.v, self.delta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadExtElem):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.delta == other.delta

    __hash__ = None

    def __repr__(self) -> str:
        return f"QuadExtElem(({self.u}) + ({self.v})*sqrt({self.delta}))"
