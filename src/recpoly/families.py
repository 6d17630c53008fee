"""Order-2 families (Fibonacci/Lucas polynomials, Dickson D/E) and the
machine-checkable identity catalog.

An :class:`Order2Family` fixes the pair (q1, q2) of coefficient polynomials
and yields F (initials 0, 1) and L (initials 2, q1) under
P_{n+2} = q1 P_{n+1} + q2 P_n.  The Dickson polynomials of the first and
second kind are the family q1 = x, q2 = -a with initials (2, x) and (1, x).

Identities are checked on the generic family (q1, q2 free variables)
wherever they are polynomial, so a pass implies a pass for every
specialization; the two Binet statements that inherently involve radicals
are checked numerically at integer points instead.

Two catalog entries ending in ``-as-printed`` reproduce published forms
that are inconsistent with the rest of the catalog; they are expected to
FAIL and exist as regressions documenting the discrepancy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .binet import binet_multiple, char_roots
from .closedform import (
    generalized_lucas,
    generalized_lucas_closed_form,
    hessenberg_det_symbolic,
)
from .errors import StructuralError
from .recurrence import RecurrenceSpec, iterate_terms
from .ring import MultiPoly, QuadExtElem

NUMERIC_REL_TOL = 1e-8


@dataclass(frozen=True)
class Order2Family:
    """A pair (q1, q2) defining F and L under P_{n+2} = q1 P_{n+1} + q2 P_n."""

    q1: MultiPoly
    q2: MultiPoly

    def __post_init__(self):
        if self.q1.variables != self.q2.variables:
            raise StructuralError("q1 and q2 must share one variable list")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.q1.variables

    def delta(self) -> MultiPoly:
        """The derived discriminant q1^2 + 4 q2."""
        return self.q1 * self.q1 + 4 * self.q2

    def _spec(self, p0: int | MultiPoly, p1: int | MultiPoly) -> RecurrenceSpec:
        conv = lambda p: p if isinstance(p, MultiPoly) else MultiPoly.const(self.variables, p)
        return RecurrenceSpec.make(self.variables, [self.q1, self.q2], [conv(p0), conv(p1)])

    def fib_spec(self) -> RecurrenceSpec:
        return self._spec(0, 1)

    def lucas_spec(self) -> RecurrenceSpec:
        return self._spec(2, self.q1)

    def fib_list(self, n_max: int) -> list[MultiPoly]:
        return iterate_terms(self.fib_spec(), n_max)

    def lucas_list(self, n_max: int) -> list[MultiPoly]:
        return iterate_terms(self.lucas_spec(), n_max)

    def fib(self, n: int) -> MultiPoly:
        return self.fib_list(n)[n]

    def lucas(self, n: int) -> MultiPoly:
        return self.lucas_list(n)[n]

    def fib_explicit(self, n: int) -> MultiPoly:
        """F_{n+1} = sum_i binom(n-i, i) q1^(n-2i) q2^i, returned at index n.

        F_0 falls outside the sum's range and is returned directly.
        """
        if n == 0:
            return MultiPoly.zero(self.variables)
        m = n - 1
        total = MultiPoly.zero(self.variables)
        for i in range(m // 2 + 1):
            total = total + math.comb(m - i, i) * self.q1 ** (m - 2 * i) * self.q2**i
        return total

    def lucas_explicit(self, n: int) -> MultiPoly:
        """L_n = sum_i n/(n-i) binom(n-i, i) q1^(n-2i) q2^i for n >= 1.

        The weight n/(n-i) * binom(n-i, i) is an exact integer; divisibility
        is asserted rather than assumed.
        """
        if n < 1:
            raise StructuralError("the explicit Lucas sum is stated for n >= 1")
        total = MultiPoly.zero(self.variables)
        for i in range(n // 2 + 1):
            total = total + lucas_weight(n, i) * self.q1 ** (n - 2 * i) * self.q2**i
        return total


def lucas_weight(n: int, i: int) -> int:
    """n/(n-i) * binom(n-i, i), asserted to be an exact integer."""
    numerator = n * math.comb(n - i, i)
    quotient, remainder = divmod(numerator, n - i)
    if remainder:
        raise StructuralError(f"n/(n-i)*binom(n-i,i) is not integral at n={n}, i={i}")
    return quotient


def generic_family() -> Order2Family:
    """The fully generic family with q1, q2 as free variables."""
    variables = ("q1", "q2")
    return Order2Family(MultiPoly.var("q1", variables), MultiPoly.var("q2", variables))


def classical_family() -> Order2Family:
    """q1 = x, q2 = 1: the classical one-variable Fibonacci/Lucas polynomials."""
    variables = ("x",)
    return Order2Family(MultiPoly.var("x", variables), MultiPoly.const(variables, 1))


def dickson_family() -> Order2Family:
    """q1 = x, q2 = -a over the variables (x, a)."""
    variables = ("x", "a")
    return Order2Family(MultiPoly.var("x", variables), -MultiPoly.var("a", variables))


def _dickson_lists(n_max: int) -> tuple[list[MultiPoly], list[MultiPoly]]:
    fam = dickson_family()
    x = fam.q1
    d = iterate_terms(fam._spec(2, x), n_max)
    e = iterate_terms(fam._spec(1, x), n_max)
    return d, e


def dickson_D(n: int) -> MultiPoly:
    """Dickson polynomial of the first kind, recurrence and explicit sum agreeing."""
    fam = dickson_family()
    value = iterate_terms(fam._spec(2, fam.q1), n)[n]
    if n >= 1:
        assert value == fam.lucas_explicit(n)
    return value


def dickson_E(n: int) -> MultiPoly:
    """Dickson polynomial of the second kind, recurrence and explicit sum agreeing."""
    fam = dickson_family()
    value = iterate_terms(fam._spec(1, fam.q1), n)[n]
    assert value == fam.fib_explicit(n + 1)
    return value


def tridiag_det_symbolic(diag: MultiPoly, sup: MultiPoly, sub: MultiPoly, n: int) -> MultiPoly:
    """Determinant of the n x n tridiagonal matrix with constant bands,
    by cofactor expansion on the literal entries."""
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    prev2 = MultiPoly.const(diag.variables, 1)
    if n == 0:
        return prev2
    prev1 = diag
    for _ in range(2, n + 1):
        prev1, prev2 = diag * prev1 - sup * sub * prev2, prev1
    return prev1


def dickson_E_det(n: int) -> MultiPoly:
    """E_n as the n x n tridiagonal determinant (diagonal x, superdiagonal a,
    subdiagonal +1)."""
    if n < 1:
        raise StructuralError(f"n must be >= 1, got {n}")
    variables = ("x", "a")
    x = MultiPoly.var("x", variables)
    a = MultiPoly.var("a", variables)
    one = MultiPoly.const(variables, 1)
    return tridiag_det_symbolic(x, a, one, n)


def dickson_E_det_signflip_check(n: int) -> bool:
    """The proof's similarity step: flipping both off-diagonal bands'
    signs leaves the tridiagonal determinant unchanged."""
    variables = ("x", "a")
    x = MultiPoly.var("x", variables)
    a = MultiPoly.var("a", variables)
    one = MultiPoly.const(variables, 1)
    return tridiag_det_symbolic(x, a, one, n) == tridiag_det_symbolic(x, -a, -one, n)


def tridiag_closed_form_check(b: complex, a_sub: complex, c_sup: complex, n: int,
                              rel_tol: float = NUMERIC_REL_TOL) -> bool:
    """Compare the radical closed form of the constant-band tridiagonal
    determinant against an LU determinant of the literal matrix."""
    if n < 1:
        raise StructuralError(f"n must be >= 1, got {n}")
    b, a_sub, c_sup = complex(b), complex(a_sub), complex(c_sup)
    disc = b * b - 4 * a_sub * c_sup
    scale = max(1.0, abs(b) ** 2, 4 * abs(a_sub * c_sup))
    if abs(disc) <= 1e-12 * scale:
        closed = (n + 1) * (b / 2) ** n
    else:
        s = np.sqrt(complex(disc))
        closed = ((b + s) ** (n + 1) - (b - s) ** (n + 1)) / (2 ** (n + 1) * s)
    matrix = np.zeros((n, n), dtype=complex)
    for i in range(n):
        matrix[i, i] = b
        if i + 1 < n:
            matrix[i + 1, i] = a_sub
            matrix[i, i + 1] = c_sup
    lu = complex(np.linalg.det(matrix))
    return abs(closed - lu) <= rel_tol * max(1.0, abs(lu))


# -- identity catalog ----------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity over an index range."""

    identity_id: str
    index_range: str
    status: str  # "pass" | "fail"
    witness: Optional[tuple[dict, str, str]] = None

    def __post_init__(self):
        if (self.status == "fail") != (self.witness is not None):
            raise StructuralError("fail status and witness must appear together")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


Mismatch = tuple[dict, MultiPoly | str, MultiPoly | str]


def _quadext_identity(L, F, delta, n_range, m_range, sign: int,
                      shift: int, summed: bool) -> Iterator[Mismatch]:
    """Power identities in the quadratic extension.

    The element is L_n + sign * sqrt(delta) * F_{n-shift} (shift = 1 for the
    Dickson pairing with E_{n-1}); ``summed`` checks the conjugate-sum form
    2^m L_{nm} instead of 2^{m-1}(L_{nm} +/- sqrt(delta) F_{nm-shift}).
    """
    variables = delta.variables
    for n in n_range:
        base = QuadExtElem(L[n], sign * F[n - shift], delta)
        conj = base.conjugate()
        power = conj_power = None
        for m in m_range:
            # m_range is contiguous, so each power is the previous one times base.
            power = base**m if power is None else power * base
            lhs = power
            if summed:
                conj_power = conj**m if conj_power is None else conj_power * conj
                lhs = lhs + conj_power
                rhs = QuadExtElem(2**m * L[n * m], MultiPoly.zero(variables), delta)
            else:
                rhs = QuadExtElem(2 ** (m - 1) * L[n * m],
                                  sign * 2 ** (m - 1) * F[n * m - shift], delta)
            if lhs != rhs:
                yield ({"n": n, "m": m},
                       f"u={lhs.u}; v={lhs.v}", f"u={rhs.u}; v={rhs.v}")


def _check_4_21_12(family: Order2Family, n_max: int, seed: int) -> Iterator[Mismatch]:
    rng = random.Random(seed)
    F = family.fib_list(n_max + 1)
    L = family.lucas_list(n_max + 1)
    for case in range(5):
        point = {v: rng.randint(-5, 5) for v in family.variables}
        c1 = family.q1.eval_int(point)
        c2 = family.q2.eval_int(point)
        profile = char_roots([complex(c1), complex(c2)])
        if profile.all_simple():
            alpha, beta = profile.roots

            def fib_num(n, alpha=alpha, beta=beta):
                return (alpha**n - beta**n) / (alpha - beta)
        else:
            # Degenerate discriminant: route through the multiple-root engine.
            def fib_num(n, profile=profile):
                if n == 0:
                    return 0j
                return binet_multiple(profile, n - 1)

        def lucas_num(n):
            return 2 * fib_num(n + 1) - c1 * fib_num(n)

        for n in range(n_max + 1):
            for label, exact_poly, numeric in (
                ("F", F[n], fib_num(n)),
                ("L", L[n], lucas_num(n)),
            ):
                exact = exact_poly.eval_int(point)
                if abs(numeric - exact) > NUMERIC_REL_TOL * max(1, abs(exact)):
                    yield ({"case": case, "point": point, "n": n, "sequence": label},
                           f"{numeric!r}", f"{exact}")


def _check_lem_4_4(family: Order2Family, n_max: int, seed: int) -> Iterator[Mismatch]:
    rng = random.Random(seed)
    F = family.fib_list(n_max)
    for case in range(3):
        initials = [_random_poly(rng, family.variables) for _ in range(2)]
        P = iterate_terms(family._spec(initials[0], initials[1]), n_max)
        for n in range(1, n_max + 1):
            lhs = P[n]
            rhs = family.q2 * initials[0] * F[n - 1] + initials[1] * F[n]
            if lhs != rhs:
                yield ({"case": case, "n": n}, lhs, rhs)


def _random_poly(rng: random.Random, variables: tuple[str, ...]) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.randint(0, 1) for _ in variables)
        terms[exps] = rng.randint(-3, 3)
    return MultiPoly(variables, terms)


def _catalog() -> dict[str, Callable]:
    """Identity id -> checker(family, n_max, p_max, m_max, seed) -> mismatches."""

    catalog: dict[str, Callable] = {}

    def lem_4_4(fam, n_max, p_max, m_max, seed):
        yield from _check_lem_4_4(fam, n_max, seed)

    catalog["lem-4.4"] = lem_4_4

    def thm_4_5(fam, n_max, p_max, m_max, seed):
        F, L = fam.fib_list(n_max), fam.lucas_list(n_max)
        for n in range(1, n_max + 1):
            lhs, rhs = L[n], 2 * fam.q2 * F[n - 1] + fam.q1 * F[n]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.5"] = thm_4_5

    def thm_4_7(fam, n_max, p_max, m_max, seed):
        F, L = fam.fib_list(n_max), fam.lucas_list(n_max + 1)
        for n in range(n_max + 1):
            lhs = 2 * L[n + 1] - fam.q1 * L[n]
            rhs = fam.delta() * F[n]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.7"] = thm_4_7

    def thm_4_9(fam, n_max, p_max, m_max, seed):
        F = fam.fib_list(n_max)
        L = fam.lucas_list(n_max + max(p_max, n_max) + 1)
        for n in range(1, n_max + 1):
            for p in range(p_max + 1):
                lhs = L[n + p]
                rhs = fam.q2 * L[p] * F[n - 1] + L[p + 1] * F[n]
                if lhs != rhs:
                    yield ({"n": n, "p": p}, lhs, rhs)
            # The stated specialization p = n.
            lhs = L[2 * n]
            rhs = fam.q2 * L[n] * F[n - 1] + L[n + 1] * F[n]
            if lhs != rhs:
                yield ({"n": n, "p": "n"}, lhs, rhs)

    catalog["thm-4.9"] = thm_4_9

    def thm_4_11(fam, n_max, p_max, m_max, seed):
        F = fam.fib_list(n_max + 1)
        L = fam.lucas_list(2 * n_max)
        for n in range(1, n_max + 1):
            lhs = L[2 * n]
            rhs = F[n + 1] ** 2 + 2 * fam.q2 * F[n] ** 2 + fam.q2 ** 2 * F[n - 1] ** 2
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.11"] = thm_4_11

    def thm_4_13(fam, n_max, p_max, m_max, seed):
        F = fam.fib_list(n_max + 1)
        for n in range(n_max + 1):
            lhs = F[n + 1]
            rhs = hessenberg_det_symbolic([fam.q1, fam.q2], n)
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.13"] = thm_4_13

    def thm_4_15(fam, n_max, p_max, m_max, seed):
        F = fam.fib_list(n_max + 1)
        L = fam.lucas_list(n_max)
        for n in range(n_max + 1):
            lhs, rhs = L[n], 2 * F[n + 1] - fam.q1 * F[n]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.15"] = thm_4_15

    def thm_4_17(fam, n_max, p_max, m_max, seed):
        F = fam.fib_list(n_max + 1)
        for n in range(n_max + 1):
            lhs, rhs = F[n + 1], fam.fib_explicit(n + 1)
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.17"] = thm_4_17

    def thm_4_19(fam, n_max, p_max, m_max, seed):
        L = fam.lucas_list(n_max)
        for n in range(1, n_max + 1):
            lhs, rhs = L[n], fam.lucas_explicit(n)
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-4.19"] = thm_4_19

    def thm_4_21_12(fam, n_max, p_max, m_max, seed):
        yield from _check_4_21_12(fam, n_max, seed)

    catalog["thm-4.21-12"] = thm_4_21_12

    def make_4_21(sign: int, summed: bool):
        def checker(fam, n_max, p_max, m_max, seed):
            top = n_max * m_max + 1
            F, L = fam.fib_list(top), fam.lucas_list(top)
            m_lo = 0 if summed else 1
            yield from _quadext_identity(L, F, fam.delta(),
                                         range(n_max + 1), range(m_lo, m_max + 1),
                                         sign, 0, summed)
        return checker

    catalog["thm-4.21-3"] = make_4_21(+1, False)
    catalog["thm-4.21-4"] = make_4_21(-1, False)
    catalog["thm-4.21-5"] = make_4_21(+1, True)

    def thm_5_1(fam, n_max, p_max, m_max, seed):
        D, E = _dickson_lists(n_max + 1)
        F = dickson_family().fib_list(n_max + 1)
        for n in range(n_max + 1):
            if E[n] != F[n + 1]:
                yield ({"n": n}, E[n], F[n + 1])

    catalog["thm-5.1"] = thm_5_1

    def thm_5_2(fam, n_max, p_max, m_max, seed):
        _, E = _dickson_lists(n_max)
        for n in range(1, n_max + 1):
            det = dickson_E_det(n)
            if E[n] != det:
                yield ({"n": n}, E[n], det)
            if not dickson_E_det_signflip_check(n):
                yield ({"n": n, "part": "sign-flip"}, "asymmetric", "symmetric")

    catalog["thm-5.2"] = thm_5_2

    def thm_5_5(fam, n_max, p_max, m_max, seed):
        dickson = dickson_family()
        D, E = _dickson_lists(n_max)
        for n in range(n_max + 1):
            if n >= 1 and D[n] != dickson.lucas_explicit(n):
                yield ({"n": n, "kind": "D"}, D[n], dickson.lucas_explicit(n))
            if E[n] != dickson.fib_explicit(n + 1):
                yield ({"n": n, "kind": "E"}, E[n], dickson.fib_explicit(n + 1))

    catalog["thm-5.5"] = thm_5_5

    def make_5_6(sign: int, summed: bool):
        def checker(fam, n_max, p_max, m_max, seed):
            dickson = dickson_family()
            top = n_max * m_max + 1
            D, E = _dickson_lists(top)
            m_lo = 0 if summed else 1
            yield from _quadext_identity(D, E, dickson.delta(),
                                         range(1, n_max + 1), range(m_lo, m_max + 1),
                                         sign, 1, summed)
        return checker

    catalog["thm-5.6-1"] = make_5_6(+1, False)
    catalog["thm-5.6-2"] = make_5_6(-1, False)
    catalog["thm-5.6-3"] = make_5_6(+1, True)

    def _dickson_vars():
        fam = dickson_family()
        x = fam.q1
        a = -fam.q2
        return fam, x, a

    def thm_5_7_a(fam, n_max, p_max, m_max, seed):
        _, x, a = _dickson_vars()
        D, E = _dickson_lists(n_max)
        for n in range(2, n_max + 1):
            lhs, rhs = D[n], x * E[n - 1] - 2 * a * E[n - 2]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-5.7-a"] = thm_5_7_a

    def thm_5_7_b(fam, n_max, p_max, m_max, seed):
        dickson, x, a = _dickson_vars()
        D, E = _dickson_lists(n_max + 1)
        for n in range(1, n_max + 1):
            lhs = 2 * D[n + 1] - x * D[n]
            rhs = dickson.delta() * E[n - 1]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-5.7-b"] = thm_5_7_b

    def thm_5_7_c(fam, n_max, p_max, m_max, seed):
        _, x, a = _dickson_vars()
        D, E = _dickson_lists(n_max + p_max + 1)
        for n in range(2, n_max + 1):
            for p in range(p_max + 1):
                lhs = D[n + p]
                rhs = D[p + 1] * E[n - 1] - a * D[p] * E[n - 2]
                if lhs != rhs:
                    yield ({"n": n, "p": p}, lhs, rhs)

    catalog["thm-5.7-c"] = thm_5_7_c

    def thm_5_7_d1(fam, n_max, p_max, m_max, seed):
        _, x, a = _dickson_vars()
        D, E = _dickson_lists(2 * n_max)
        for n in range(2, n_max + 1):
            lhs = D[2 * n]
            rhs = D[n + 1] * E[n - 1] - a * D[n] * E[n - 2]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-5.7-d1"] = thm_5_7_d1

    def make_5_7_d2(top_index_shift: int):
        # Corrected form leads with E_n^2; the published form prints E_{n+1}^2.
        def checker(fam, n_max, p_max, m_max, seed):
            _, x, a = _dickson_vars()
            D, E = _dickson_lists(max(2 * n_max, n_max + top_index_shift))
            for n in range(2, n_max + 1):
                lhs = D[2 * n]
                rhs = (E[n + top_index_shift] ** 2
                       - 2 * a * E[n - 1] ** 2 + a**2 * E[n - 2] ** 2)
                if lhs != rhs:
                    yield ({"n": n}, lhs, rhs)
        return checker

    catalog["thm-5.7-d2"] = make_5_7_d2(0)
    catalog["thm-5.7-d2-as-printed"] = make_5_7_d2(1)

    def thm_5_7_e(fam, n_max, p_max, m_max, seed):
        _, x, a = _dickson_vars()
        D, E = _dickson_lists(n_max)
        for n in range(1, n_max + 1):
            lhs, rhs = D[n], 2 * E[n] - x * E[n - 1]
            if lhs != rhs:
                yield ({"n": n}, lhs, rhs)

    catalog["thm-5.7-e"] = thm_5_7_e

    def make_2_6(sign: str):
        def checker(fam, n_max, p_max, m_max, seed):
            for k in (2, 3, 4):
                for n in range(min(n_max, 15) + 1):
                    lhs = generalized_lucas(k, n)
                    rhs = generalized_lucas_closed_form(k, n, sign=sign)
                    if lhs != rhs:
                        yield ({"k": k, "n": n}, lhs, rhs)
        return checker

    catalog["thm-2.6-sign"] = make_2_6("derived")
    catalog["thm-2.6-sign-as-printed"] = make_2_6("printed")

    return catalog


_CATALOG = _catalog()

# Stable public id list (CLI contract); the -as-printed entries are the
# documented expected failures and are excluded from "all".
IDENTITY_IDS: tuple[str, ...] = tuple(
    i for i in _CATALOG if not i.endswith("-as-printed")
)
TYPO_IDS: tuple[str, ...] = tuple(i for i in _CATALOG if i.endswith("-as-printed"))


def check_identity(identity_id: str, family: Optional[Order2Family] = None,
                   n_max: int = 30, p_max: int = 10, m_max: int = 6,
                   seed: int = 0) -> IdentityReport:
    """Check one catalog identity; first mismatch (smallest index tuple in
    lexicographic order) becomes the witness.

    Dickson-section identities (thm-5.*) are statements about the fixed
    Dickson family and ignore ``family``.
    """
    if identity_id not in _CATALOG:
        raise KeyError(f"unknown identity id {identity_id!r}")
    if family is None:
        family = generic_family()
    index_range = f"n<={n_max},p<={p_max},m<={m_max}"
    for params, lhs, rhs in _CATALOG[identity_id](family, n_max, p_max, m_max, seed):
        witness = (params, str(lhs), str(rhs))
        return IdentityReport(identity_id, index_range, "fail", witness)
    return IdentityReport(identity_id, index_range, "pass")
