"""The engines for P_n, by name: ``ENGINES`` is the one place they are listed.

Each engine streams the rows P_n of one ascending index range: a term is the
range n..n, a table the range 0..n_max, and nothing is kept between calls.
``_rows`` validates the range; the recurrence's unbounded row streams are
cut to it with ``islice``.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Iterator

from .closedform import band_minors, multinomial_term
from .errors import StructuralError
from .recurrence import RecurrenceSpec, companion_power_term, companion_terms, iter_terms
from .ring import MultiPoly, _addmul, _charged


def _closed_form(spec: RecurrenceSpec, ns: range,
                 b: Callable[[int], MultiPoly]) -> Iterator[MultiPoly]:
    """P_n from a closed form's delta-initial sequence b(m) = P^(k-1)_{m+k-1}.

    Generating-function numerator (Lemma 4.4): P_n = sum_j N_j b(n-j) with
    N_j = P_j - sum_{i<=j} c_i P_{j-i}, which decomposes any initial window
    over the delta-initial sequence.  Each N_j is formed once, at the first
    row that reads it, just before its b(n-j).  Zero N_j are skipped, so
    delta initials, where N = (0, ..., 0, 1), cost the one call b(n-k+1) a
    row.  Pairs with a zero P_{j-i} add nothing, and each c_i P_{j-i} enters
    with scale -1.
    """
    variables, numerators = spec.variables, []
    for n in ns:
        total: dict[int, int] = {}
        for j in range(min(spec.order - 1, n) + 1):
            if j == len(numerators):
                nj = dict(spec.initial[j].terms)
                _addmul(nj, variables, [(-1, spec.coeffs[i - 1].terms, spec.initial[j - i].terms)
                                        for i in range(1, j + 1)])
                numerators.append(nj)
            if numerators[j]:
                _addmul(total, variables, ((1, numerators[j], b(n - j).terms),))
        yield _charged(variables, total)


def _multinomial(spec: RecurrenceSpec, ns: range) -> Iterator[MultiPoly]:
    # A row reads b(n-k+1)..b(n), so each b(m) is formed once, at its first
    # read, and dropped when b(m+k) is formed.
    powers: dict = {}  # the coefficient powers, shared by every row
    last: dict[int, MultiPoly] = {}

    def b(m: int) -> MultiPoly:
        if m not in last:
            last.pop(m - spec.order, None)
            last[m] = multinomial_term(spec.coeffs, m, power_cache=powers)
        return last[m]

    return _closed_form(spec, ns, b)


def _determinant(spec: RecurrenceSpec, ns: range) -> Iterator[MultiPoly]:
    # A row reads b(n-k+1)..b(n) and the rows ascend, so one band expansion
    # seen through a window of its last k minors serves every row.
    minors, window = enumerate(band_minors(spec.coeffs)), deque(maxlen=spec.order)

    def b(m: int) -> MultiPoly:
        while not window or window[-1][0] < m:
            window.append(next(minors))
        return window[m - window[-1][0] - 1][1]

    return _closed_form(spec, ns, b)


# Each entry is rows(spec, ns) for a nonempty range ns.  It calls its engine
# through this module's globals at call time, so a wrapper installed by
# rebinding a module attribute sees every call.  The CLI lists the engines
# in key order.
ENGINES: dict[str, Callable[[RecurrenceSpec, range], Iterator[MultiPoly]]] = {
    "iterate": lambda spec, ns: islice(iter_terms(spec), ns.start, ns.stop),
    "multinomial": _multinomial,
    "determinant": _determinant,
    "companion": lambda spec, ns: (islice(companion_terms(spec), ns.stop) if ns.start == 0
                                   else (companion_power_term(spec, n) for n in ns)),
}


def _rows(spec: RecurrenceSpec, lo: int, hi: int, engine: str, name: str) -> Iterator[MultiPoly]:
    if engine not in ENGINES:
        raise StructuralError(f"unknown engine {engine!r}")
    if hi < 0:
        raise StructuralError(f"{name} must be >= 0, got {hi}")
    return ENGINES[engine](spec, range(lo, hi + 1))


def compute_term(spec: RecurrenceSpec, n: int, engine: str) -> MultiPoly:
    """P_n by the named engine (consistent indexing across engines)."""
    return next(_rows(spec, n, n, engine, "n"))


def table_terms(spec: RecurrenceSpec, n_max: int, engine: str) -> Iterator[MultiPoly]:
    """P_0, ..., P_{n_max} by the named engine, streamed row by row."""
    return _rows(spec, 0, n_max, engine, "n_max")
