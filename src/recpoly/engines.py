"""The engines for P_n, by name: ``ENGINES`` is the one place they are listed."""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from .closedform import band_minors, multinomial_term
from .errors import StructuralError
from .recurrence import RecurrenceSpec, companion_power_term, companion_terms, iter_terms
from .ring import MultiPoly, _addmul, _charged


def _closed_form(spec: RecurrenceSpec, n: int, b: Callable[[int], MultiPoly]) -> MultiPoly:
    """P_n from a closed form's delta-initial sequence b(m) = P^(k-1)_{m+k-1}.

    Generating-function numerator (Lemma 4.4): P_n = sum_j N_j b(n-j) with
    N_j = P_j - sum_{i<=j} c_i P_{j-i}, which decomposes any initial window
    over the delta-initial sequence.  Zero N_j are skipped, so delta
    initials, where N = (0, ..., 0, 1), cost the one call b(n-k+1).  Pairs
    with a zero P_{j-i} add nothing, and each c_i P_{j-i} enters with scale -1.
    """
    variables = spec.variables
    total: dict[int, int] = {}
    for j in range(min(spec.order - 1, n) + 1):
        nj = dict(spec.initial[j].terms)
        _addmul(nj, variables, [(-1, spec.coeffs[i - 1].terms, spec.initial[j - i].terms)
                                for i in range(1, j + 1)])
        if nj:
            _addmul(total, variables, ((1, nj, b(n - j).terms),))
    return _charged(variables, total)


def _iterate(spec: RecurrenceSpec, n: int, cache: dict) -> MultiPoly:
    for term in iter_terms(spec, n):
        pass
    return term


def _multinomial(spec: RecurrenceSpec, n: int, cache: dict) -> MultiPoly:
    # The cache holds the coefficient powers.
    return _closed_form(spec, n, lambda m: multinomial_term(spec.coeffs, m, power_cache=cache))


def _determinant(spec: RecurrenceSpec, n: int, cache: dict) -> MultiPoly:
    # The cache holds the band expansion and its last k minors: a term reads
    # b(n-k+1)..b(n) and a table's rows ascend, so one expansion serves a
    # term, or a whole table.  A b(m) behind the window starts it over.
    def b(m: int) -> MultiPoly:
        if "minors" not in cache or m < cache["next"] - spec.order:
            cache.update(minors=band_minors(spec.coeffs), next=0, window=deque(maxlen=spec.order))
        while cache["next"] <= m:
            cache["window"].append(next(cache["minors"]))
            cache["next"] += 1
        return cache["window"][m - cache["next"]]

    return _closed_form(spec, n, b)


# Each entry is fn(spec, n, cache), where ``cache`` is a dict the engine may
# fill and reuse across calls for the same spec.  It calls its engine
# through this module's globals at call time, so a wrapper installed by
# rebinding a module attribute sees every call.  The CLI lists the engines
# in key order.
ENGINES = {
    "iterate": _iterate,
    "multinomial": _multinomial,
    "determinant": _determinant,
    "companion": lambda spec, n, cache: companion_power_term(spec, n),
}


def _engine(name: str) -> Callable[[RecurrenceSpec, int, dict], MultiPoly]:
    if name not in ENGINES:
        raise StructuralError(f"unknown engine {name!r}")
    return ENGINES[name]


def compute_term(spec: RecurrenceSpec, n: int, engine: str) -> MultiPoly:
    """P_n by the named engine (consistent indexing across engines)."""
    fn = _engine(engine)
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    return fn(spec, n, {})


def table_terms(spec: RecurrenceSpec, n_max: int, engine: str) -> Iterator[MultiPoly]:
    """P_0, ..., P_{n_max} by the named engine; iterate and companion stream their rows."""
    if n_max < 0:
        raise StructuralError(f"n_max must be >= 0, got {n_max}")
    rows = {"iterate": iter_terms, "companion": companion_terms}.get(engine)
    if rows:
        return rows(spec, n_max)
    fn, cache = _engine(engine), {}  # one cache for every row
    return (fn(spec, n, cache) for n in range(n_max + 1))
