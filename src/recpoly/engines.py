"""The engines for P_n, by name: ``ENGINES`` is the one place they are listed."""

from __future__ import annotations

from typing import Callable, Iterator

from .closedform import hessenberg_det_symbolic, multinomial_term
from .errors import StructuralError
from .recurrence import RecurrenceSpec, companion_power_term, iter_terms
from .ring import MultiPoly


def _closed_form(spec: RecurrenceSpec, n: int, b: Callable[[int], MultiPoly]) -> MultiPoly:
    """P_n from a closed form's delta-initial sequence b(m) = P^(k-1)_{m+k-1}.

    Generating-function numerator (Lemma 4.4): P_n = sum_j N_j b(n-j) with
    N_j = P_j - sum_{i<=j} c_i P_{j-i}, which decomposes any initial window
    over the delta-initial sequence.  Zero N_j are skipped, so delta
    initials, where N = (0, ..., 0, 1), cost the one call b(n-k+1).
    """
    total = MultiPoly.zero(spec.variables)
    for j in range(min(spec.order - 1, n) + 1):
        nj = spec.initial[j]
        for i in range(1, j + 1):
            nj = nj - spec.coeffs[i - 1] * spec.initial[j - i]
        if not nj.is_zero():
            total = total + nj * b(n - j)
    return total


def _iterate(spec: RecurrenceSpec, n: int) -> MultiPoly:
    for term in iter_terms(spec, n):
        pass
    return term


def _multinomial(spec: RecurrenceSpec, n: int) -> MultiPoly:
    cache: dict = {}  # coefficient powers, shared by the b(m) of one term
    return _closed_form(spec, n, lambda m: multinomial_term(spec.coeffs, m, power_cache=cache))


def _determinant(spec: RecurrenceSpec, n: int) -> MultiPoly:
    return _closed_form(spec, n, lambda m: hessenberg_det_symbolic(spec.coeffs, m))


# Each entry is fn(spec, n).  It calls its engine through this module's
# globals at call time, so a wrapper installed by rebinding a module
# attribute sees every call.  The CLI lists the engines in key order.
ENGINES = {
    "iterate": _iterate,
    "multinomial": _multinomial,
    "determinant": _determinant,
    "companion": lambda spec, n: companion_power_term(spec, n),
}


def compute_term(spec: RecurrenceSpec, n: int, engine: str) -> MultiPoly:
    """P_n by the named engine (consistent indexing across engines)."""
    if engine not in ENGINES:
        raise StructuralError(f"unknown engine {engine!r}")
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    return ENGINES[engine](spec, n)


def table_terms(spec: RecurrenceSpec, n_max: int, engine: str) -> Iterator[MultiPoly]:
    """P_0, ..., P_{n_max} by the named engine; iteration yields each step's term."""
    if n_max < 0:
        raise StructuralError(f"n_max must be >= 0, got {n_max}")
    if engine == "iterate":
        return iter_terms(spec, n_max)
    return (compute_term(spec, n, engine) for n in range(n_max + 1))
