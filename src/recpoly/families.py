"""Order-2 families (Fibonacci/Lucas polynomials, Dickson D/E) and the
machine-checkable identity catalog.

An :class:`Order2Family` fixes the pair (q1, q2) of coefficient polynomials
and yields F (initials 0, 1) and L (initials 2, q1) under
P_{n+2} = q1 P_{n+1} + q2 P_n.  The Dickson polynomials of the first and
second kind are the family q1 = x, q2 = -a with initials (2, x) and (1, x),
so D_n = L_n and E_n = F_{n+1}: the Section 5 checks (thm-5.*) read that family.

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
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional

from .binet import binet_multiple, char_roots
from .closedform import (
    band_minors,
    generalized_lucas_closed_form,
    generalized_lucas_spec,
    hessenberg_minors,
)
from .errors import StructuralError
from .recurrence import RecurrenceSpec, iter_terms, iterate_terms
from .ring import MultiPoly, QuadExtElem, _addmul, _charged

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

        F_0 is the empty sum.
        """
        if n < 0:
            raise StructuralError("the explicit Fibonacci sum is stated for n >= 0")
        return next(self._explicit(range(n - 1, n)))(fib_weight)

    def lucas_explicit(self, n: int) -> MultiPoly:
        """L_n = sum_i n/(n-i) binom(n-i, i) q1^(n-2i) q2^i for n >= 1.

        The weight n/(n-i) * binom(n-i, i) is an exact integer; divisibility
        is asserted rather than assumed.
        """
        if n < 1:
            raise StructuralError("the explicit Lucas sum is stated for n >= 1")
        return next(self._explicit(range(n, n + 1)))(lucas_weight)

    def _explicit(self, tops: range) -> Iterator[Callable[[Callable[[int, int], int]], MultiPoly]]:
        """For each top of an ascending range, the sum
        sum_i weight(top, i) q1^(top-2i) q2^i over i <= top/2 as a function of
        the weight, each sum in one kernel call.  One table of the powers of q1
        and q2 serves the range and every weight: it grows to each top in
        turn, so every power is one product, formed once."""
        one = MultiPoly.const(self.variables, 1)
        q1, q2 = [one], [one]

        def at(top: int, weight: Callable[[int, int], int]) -> MultiPoly:
            acc: dict[int, int] = {}
            _addmul(acc, self.variables, ((weight(top, i), q1[top - 2 * i].terms, q2[i].terms)
                                          for i in range(top // 2 + 1)))
            return _charged(self.variables, acc)

        for top in tops:
            while len(q1) <= top:
                q1.append(q1[-1] * self.q1)
            while len(q2) <= top // 2:
                q2.append(q2[-1] * self.q2)
            yield partial(at, top)


def _sum(*products: tuple[int, MultiPoly, MultiPoly]) -> MultiPoly:
    """sum scale * a * b over the ``(scale, a, b)`` triples, in one kernel call."""
    variables, acc = products[0][1].variables, {}
    _addmul(acc, variables, ((c, a.terms, b.terms) for c, a, b in products))
    return _charged(variables, acc)


def fib_weight(n: int, i: int) -> int:
    """binom(n-i, i), the weight of F_{n+1}'s explicit sum."""
    return math.comb(n - i, i)


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


def dickson_D(n: int) -> MultiPoly:
    """Dickson polynomial of the first kind, recurrence and explicit sum agreeing."""
    fam = dickson_family()
    value = fam.lucas(n)
    if n >= 1 and value != fam.lucas_explicit(n):
        raise StructuralError(f"D_{n}: the recurrence and the explicit sum disagree")
    return value


def dickson_E(n: int) -> MultiPoly:
    """Dickson polynomial of the second kind, recurrence and explicit sum agreeing."""
    fam = dickson_family()
    value = iterate_terms(fam._spec(1, fam.q1), n)[n]
    if value != fam.fib_explicit(n + 1):
        raise StructuralError(f"E_{n}: the recurrence and the explicit sum disagree")
    return value


def _tridiag(diag: MultiPoly, sub: MultiPoly, sup: MultiPoly, n: int) -> list[list[MultiPoly]]:
    """The literal n x n tridiagonal matrix with constant bands, zero off them."""
    bands, zero = {-1: sub, 0: diag, 1: sup}, diag * 0
    return [[bands.get(j - i, zero) for j in range(n)] for i in range(n)]


def _dickson_E_minors(n_max: int, sign: int = 1) -> list[MultiPoly]:
    """The leading minors d_0..d_n_max of the literal n_max x n_max
    tridiagonal matrix with diagonal x, superdiagonal sign * a and
    subdiagonal sign * 1.  Its leading n x n block is the literal n x n
    matrix, so d_n is that matrix's determinant."""
    fam = dickson_family()
    x, a, one = fam.q1, -fam.q2, MultiPoly.const(fam.variables, 1)
    return hessenberg_minors(_tridiag(x, sign * one, sign * a, n_max))


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


# (params, lhs, rhs): one comparison of an identity; its sides are
# polynomials, quadratic-extension elements or labels.
Case = tuple[dict, object, object]


class _Seq:
    """P_0, P_1, ... of one recurrence, each term formed at its first read:
    the list grows one :func:`iter_terms` step at a time, up to the highest
    index read.  A negative index raises IndexError; it never wraps around."""

    __slots__ = ("terms", "_rows")

    def __init__(self, spec: RecurrenceSpec):
        self.terms, self._rows = [], iter_terms(spec)

    def __getitem__(self, n: int) -> MultiPoly:
        if n < 0:
            raise IndexError(f"sequence index {n} is below 0")
        terms = self.terms
        while len(terms) <= n:
            terms.append(next(self._rows))
        return terms[n]


class _Store:
    """What one check reads of its one family, by name: F, L and E
    (initials 1, q1, so E_n = F_{n+1}), each a :class:`_Seq` that forms no
    term before its first read; ``delta``, formed at its first read; and
    ``rng``, the random source of the ids that draw points or initial
    windows.  The thm-5.* ids read the Dickson family under the paper's
    names D = L, x = q1 and a = -q2.  A store serves one check and is then
    dropped, so nothing is memoized across checks.
    """

    def __init__(self, fam: Order2Family, seed: int):
        self.fam, self.q1, self.q2 = fam, fam.q1, fam.q2
        self.F, self.L, self.E = (_Seq(fam.fib_spec()), _Seq(fam.lucas_spec()),
                                  _Seq(fam._spec(1, fam.q1)))
        self.D, self.x, self.a = self.L, fam.q1, -fam.q2
        self.rng = random.Random(seed)

    @cached_property
    def delta(self) -> MultiPoly:
        return self.fam.delta()


def _each_n(lo: int, sides: Callable[[_Store, int], tuple]) -> Callable:
    """Cases n = lo..N, with (lhs, rhs) = sides(store, n)."""
    return lambda s, N, P, M: (({"n": n}, *sides(s, n)) for n in range(lo, N + 1))


def _quadext_cases(s: _Store, N: int, M: int, dickson: bool, sign: int,
                   summed: bool) -> Iterator[Case]:
    """Power identities in the quadratic extension.

    The element is L_n + sign * sqrt(delta) * F_n, with m-th power
    2^{m-1}(L_{nm} + sign * sqrt(delta) * F_{nm}) for m >= 1; on the Dickson
    family it is D_n + sign * sqrt(delta) * E_{n-1} for n >= 1, and E_{nm-1}
    replaces F_{nm}.  ``summed`` checks the conjugate sum, 2^m L_{nm} (or
    2^m D_{nm}) for m >= 0, instead.

    No extension product is formed: by Cayley-Hamilton both components of z^m
    follow an order-2 recurrence in m (:func:`_power_chains`) whose coefficients
    are exact, from the stored base.  z^m + conj(z^m) = 2 u_m reads u_m alone.
    """
    shift, F = (1, s.E) if dickson else (0, s.F)
    L, delta = s.L, s.delta
    zero = MultiPoly.zero(delta.variables)
    if M == 0 and not summed:  # no power m >= 1 to check
        return
    for n in range(shift, N + 1):
        us, vs = _power_chains(L[n], sign * F[n - shift], delta)
        for m, u_m, v_m in zip(range(M + 1), us, repeat(zero) if summed else vs):
            if summed:
                yield {"n": n, "m": m}, QuadExtElem(2 * u_m, zero, delta), QuadExtElem(
                    2**m * L[n * m], zero, delta)
            elif m:
                yield {"n": n, "m": m}, QuadExtElem(u_m, v_m, delta), QuadExtElem(
                    2 ** (m - 1) * L[n * m], sign * 2 ** (m - 1) * F[n * m - shift], delta)


def _power_chains(u: MultiPoly, v: MultiPoly,
                  delta: MultiPoly) -> tuple[Iterator[MultiPoly], Iterator[MultiPoly]]:
    """Unbounded chains of u_m and v_m, m = 0, 1, ..., for z^m = u_m + v_m sqrt(delta)
    and z = u + v sqrt(delta).  By Cayley-Hamilton z^2 = 2u z - N with the
    norm N = u^2 - delta v^2, so each component follows the recurrence
    P_{m+2} = 2u P_{m+1} - N P_m from (1, u) for u_m and (0, v) for v_m: two
    ring products a step, where an extension product costs four."""
    variables = delta.variables
    minus_norm = _sum((-1, u, u), (1, delta, v * v))
    spec = RecurrenceSpec.make(variables, [2 * u, minus_norm], [MultiPoly.const(variables, 1), u])
    return iter_terms(spec), iter_terms(spec.with_initial([MultiPoly.zero(variables), v]))


def _power(dickson: bool, sign: int, summed: bool) -> Callable:
    """thm-4.21-3/4/5 (L and F) or thm-5.6-1/2/3 (D and E)."""
    return lambda s, N, P, M: _quadext_cases(s, N, M, dickson, sign, summed)


def _cases_4_9(s: _Store, N: int, P: int, M: int) -> Iterator[Case]:
    q2_L = [s.q2 * s.L[q] for q in range(max(N, P) + 1)]
    for n in range(1, N + 1):
        for p in (*range(P + 1), "n"):  # then the stated specialization p = n
            q = n if p == "n" else p
            yield ({"n": n, "p": p}, s.L[n + q],
                   _sum((1, q2_L[q], s.F[n - 1]), (1, s.L[q + 1], s.F[n])))


def _square_sum(top: MultiPoly, mid: MultiPoly, low: MultiPoly, q2: MultiPoly) -> MultiPoly:
    """top^2 + 2 q2 mid^2 + (q2 low)^2, the right side of thm-4.11 and thm-5.7-d2."""
    q2_low = q2 * low
    return _sum((1, top, top), (2, q2 * mid, mid), (1, q2_low, q2_low))


def _cases_4_13(s: _Store, N: int, P: int, M: int) -> Iterator[Case]:
    # One expansion serves every n of this check.
    for n, det in zip(range(N + 1), band_minors([s.q1, s.q2])):
        yield {"n": n}, s.F[n + 1], det


def _cases_5_2(s: _Store, N: int, P: int, M: int) -> Iterator[Case]:
    # E_n is the n x n tridiagonal determinant with diagonal x, superdiagonal
    # a and subdiagonal 1, and flipping both off-diagonal bands' signs (the
    # proof's similarity step) leaves it unchanged.  One literal N x N matrix
    # per sign: its leading minors d_n are both determinants for every n <= N.
    plus, minus = _dickson_E_minors(max(N, 1)), _dickson_E_minors(max(N, 1), -1)
    for n in range(1, N + 1):
        yield {"n": n}, s.E[n], plus[n]
        flip = "symmetric" if plus[n] == minus[n] else "asymmetric"
        yield {"n": n, "part": "sign-flip"}, flip, "symmetric"


def _cases_5_5(s: _Store, N: int, P: int, M: int) -> Iterator[Case]:
    # D_n's and E_n = F_{n+1}'s sums read the same powers at top n: one table serves both.
    for n, at in enumerate(s.fam._explicit(range(N + 1))):
        if n >= 1:
            yield {"n": n, "kind": "D"}, s.D[n], at(lucas_weight)
        yield {"n": n, "kind": "E"}, s.E[n], at(fib_weight)


def _d2(shift: int) -> Callable:
    """thm-5.7-d2: the corrected form leads with E_n^2 (shift 0); the
    published form prints E_{n+1}^2 (shift 1)."""
    return _each_n(2, lambda s, n: (
        s.D[2 * n], _square_sum(s.E[n + shift], s.E[n - 1], s.E[n - 2], s.q2)))


def _thm_2_6(sign: str) -> Callable:
    """thm-2.6-sign: the generalized Lucas closed form with the derived or
    the printed sign, for k = 2..4 and n <= min(n_max, 15)."""
    return lambda s, N, P, M: (
        ({"k": k, "n": n}, term, generalized_lucas_closed_form(k, n, sign=sign))
        for k in (2, 3, 4)
        for n, term in zip(range(min(N, 15) + 1), iter_terms(generalized_lucas_spec(k))))


def _cases_4_21_12(s: _Store, N: int, P: int, M: int) -> Iterator[Case]:
    # The comparison is in floating point, so a case is yielded only past the
    # tolerance, with sides (a complex repr, an integer) that always differ.
    # A point where a coefficient or an exact F_n or L_n is past the float
    # range stops the check.
    for case in range(5):
        point = {v: s.rng.randint(-5, 5) for v in s.fam.variables}
        c1 = s.q1.eval_int(point)
        c2 = s.q2.eval_int(point)
        try:
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

            for n in range(N + 1):
                for label, exact_poly, numeric in (
                    ("F", s.F[n], fib_num(n)),
                    ("L", s.L[n], lucas_num(n)),
                ):
                    exact = exact_poly.eval_int(point)
                    if abs(numeric - exact) > NUMERIC_REL_TOL * max(1, abs(exact)):
                        yield ({"case": case, "point": point, "n": n, "sequence": label},
                               f"{numeric!r}", f"{exact}")
        except OverflowError:
            raise StructuralError(f"thm-4.21-12: a value at {point} is past the float range, "
                                  "where the numeric Binet check cannot compare it") from None


def _cases_lem_4_4(s: _Store, N: int, P: int, M: int) -> Iterator[Case]:
    for case in range(3):
        initials = [_random_poly(s.rng, s.fam.variables) for _ in range(2)]
        window = _Seq(s.fam._spec(initials[0], initials[1]))
        for n in range(1, N + 1):
            yield ({"case": case, "n": n}, window[n],
                   s.q2 * initials[0] * s.F[n - 1] + initials[1] * s.F[n])


def _random_poly(rng: random.Random, variables: tuple[str, ...]) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.randint(0, 1) for _ in variables)
        terms[exps] = rng.randint(-3, 3)
    return MultiPoly(variables, terms)


# Identity id -> cases(store, n_max, p_max, m_max), which yields the cases in
# check order; the indices they read are the indices the store builds to.
# This order is the order of IDENTITY_IDS, TYPO_IDS and the CLI's output.
_CATALOG: dict[str, Callable[[_Store, int, int, int], Iterable[Case]]] = {
    "lem-4.4": _cases_lem_4_4,
    "thm-4.5": _each_n(1, lambda s, n: (s.L[n], 2 * s.q2 * s.F[n - 1] + s.q1 * s.F[n])),
    "thm-4.7": _each_n(0, lambda s, n: (2 * s.L[n + 1] - s.q1 * s.L[n], s.delta * s.F[n])),
    "thm-4.9": _cases_4_9,
    "thm-4.11": _each_n(1, lambda s, n: (
        s.L[2 * n], _square_sum(s.F[n + 1], s.F[n], s.F[n - 1], s.q2))),
    "thm-4.13": _cases_4_13,
    "thm-4.15": _each_n(0, lambda s, n: (s.L[n], 2 * s.F[n + 1] - s.q1 * s.F[n])),
    "thm-4.17": lambda s, N, P, M: (
        ({"n": n}, s.F[n + 1], at(fib_weight)) for n, at in enumerate(s.fam._explicit(range(N + 1)))),
    "thm-4.19": lambda s, N, P, M: (
        ({"n": n}, s.L[n], at(lucas_weight))
        for n, at in enumerate(s.fam._explicit(range(1, N + 1)), 1)),
    "thm-4.21-12": _cases_4_21_12,
    "thm-4.21-3": _power(False, +1, False),
    "thm-4.21-4": _power(False, -1, False),
    "thm-4.21-5": _power(False, +1, True),
    "thm-5.1": _each_n(0, lambda s, n: (s.E[n], s.F[n + 1])),
    "thm-5.2": _cases_5_2,
    "thm-5.5": _cases_5_5,
    "thm-5.6-1": _power(True, +1, False),
    "thm-5.6-2": _power(True, -1, False),
    "thm-5.6-3": _power(True, +1, True),
    "thm-5.7-a": _each_n(2, lambda s, n: (s.D[n], s.x * s.E[n - 1] - 2 * s.a * s.E[n - 2])),
    "thm-5.7-b": _each_n(1, lambda s, n: (
        2 * s.D[n + 1] - s.x * s.D[n], s.delta * s.E[n - 1])),
    "thm-5.7-c": lambda s, N, P, M: (
        ({"n": n, "p": p}, s.D[n + p], _sum((1, s.D[p + 1], s.E[n - 1]), (-1, s.D[p], a_E)))
        for n in range(2, N + 1) for a_E in (s.a * s.E[n - 2],) for p in range(P + 1)),
    "thm-5.7-d1": _each_n(2, lambda s, n: (
        s.D[2 * n], _sum((1, s.D[n + 1], s.E[n - 1]), (-1, s.D[n], s.a * s.E[n - 2])))),
    "thm-5.7-d2": _d2(0),
    "thm-5.7-d2-as-printed": _d2(1),
    "thm-5.7-e": _each_n(1, lambda s, n: (s.D[n], 2 * s.E[n] - s.x * s.E[n - 1])),
    "thm-2.6-sign": _thm_2_6("derived"),
    "thm-2.6-sign-as-printed": _thm_2_6("printed"),
}

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
    Dickson family (q1 = x, q2 = -a) and always run on it, ignoring
    ``family``.
    """
    if identity_id not in _CATALOG:
        raise KeyError(f"unknown identity id {identity_id!r}")
    for name, value in (("n_max", n_max), ("p_max", p_max), ("m_max", m_max)):
        if value < 0:
            raise StructuralError(f"{name} must be >= 0, got {value}")
    if identity_id.startswith("thm-5."):
        family = dickson_family()
    store = _Store(generic_family() if family is None else family, seed)
    index_range = f"n<={n_max},p<={p_max},m<={m_max}"
    for params, lhs, rhs in _CATALOG[identity_id](store, n_max, p_max, m_max):
        if lhs != rhs:
            return IdentityReport(identity_id, index_range, "fail", (params, str(lhs), str(rhs)))
    return IdentityReport(identity_id, index_range, "pass")
