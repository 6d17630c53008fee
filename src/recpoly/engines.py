"""The engines for P_n, by name: ``ENGINES`` is the one place they are listed."""

from __future__ import annotations

from typing import Callable, Iterator

from .closedform import hessenberg_det_symbolic, multinomial_term
from .errors import StructuralError
from .recurrence import RecurrenceSpec, companion_power_term, iter_terms, iterate_terms
from .ring import MultiPoly


def _closed_form(name: str, spec: RecurrenceSpec, n: int, compose: bool,
                 b: Callable[[int], MultiPoly]) -> MultiPoly:
    """P_n from a closed form's delta-initial sequence b(m) = P^(k-1)_{m+k-1}."""
    k = spec.order
    if compose:
        # Generating-function numerator: P_n = sum_j N_j b_{n-j} with
        # N_j = P_j - sum_{i<=j} c_i P_{j-i}, which decomposes general
        # initials over the delta-initial sequence.
        numerator = []
        for j in range(k):
            nj = spec.initial[j]
            for i in range(1, j + 1):
                nj = nj - spec.coeffs[i - 1] * spec.initial[j - i]
            numerator.append(nj)
        total = MultiPoly.zero(spec.variables)
        for j in range(min(k - 1, n) + 1):
            total = total + numerator[j] * b(n - j)
        return total
    if not spec.has_delta_initials():
        raise StructuralError(
            f"engine {name!r} computes the delta-initial sequence; "
            "this spec has general initials (use --compose)"
        )
    if n < k - 1:
        return spec.initial[n]
    return b(n - k + 1)


def _multinomial(spec: RecurrenceSpec, n: int, compose: bool) -> MultiPoly:
    cache: dict = {}  # coefficient powers, shared by the b(m) of one term
    return _closed_form("multinomial", spec, n, compose, lambda m: multinomial_term(
        spec.coeffs, m, power_cache=cache))


def _determinant(spec: RecurrenceSpec, n: int, compose: bool) -> MultiPoly:
    return _closed_form("determinant", spec, n, compose,
                        lambda m: hessenberg_det_symbolic(spec.coeffs, m))


# Each entry is fn(spec, n, compose).  It calls its engine through
# this module's globals at call time, so a wrapper installed by rebinding a
# module attribute sees every call.  The CLI lists the engines in key order.
ENGINES = {
    "iterate": lambda spec, n, compose: iterate_terms(spec, n)[n],
    "multinomial": _multinomial,
    "determinant": _determinant,
    "companion": lambda spec, n, compose: companion_power_term(spec, n),
}


def compute_term(spec: RecurrenceSpec, n: int, engine: str,
                 compose: bool = False) -> MultiPoly:
    """P_n by the named engine (consistent indexing across engines)."""
    if engine not in ENGINES:
        raise StructuralError(f"unknown engine {engine!r}")
    return ENGINES[engine](spec, n, compose)


def table_terms(spec: RecurrenceSpec, n_max: int, engine: str,
                compose: bool = False) -> Iterator[MultiPoly]:
    """P_0, ..., P_{n_max} by the named engine; iteration yields each step's term."""
    if engine == "iterate":
        return iter_terms(spec, n_max)
    return (compute_term(spec, n, engine, compose) for n in range(n_max + 1))
