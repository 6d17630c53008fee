"""Independent references for the benchmark's checks, in plain Python integers.

Nothing here imports recpoly.  Symbolic results are read back from their
canonical strings by :func:`parse_canonical` and evaluated at integer points;
the expected values come from integer recurrences and from closed forms the
paper's families must satisfy:

* q1 = u + v, q2 = -u*v:  F_n = (u^n - v^n)/(u - v),  L_n = u^n + v^n;
* Dickson at x = u + v, a = u*v:  D_n = u^n + v^n,  E_n = (u^(n+1) - v^(n+1))/(u - v);
* generalized Lucas with x_i = e_i(r):  P_n = h_(n-k+1)(r), the complete
  homogeneous symmetric polynomial of the roots r.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+))?\Z")


def parse_canonical(text: str, variables: Sequence[str]) -> dict[tuple[int, ...], int]:
    """Read a canonical polynomial string into {exponent vector: coefficient}.

    Accepts exactly the printed form: terms joined by `` + `` / `` - ``, the
    first term optionally prefixed by ``-``, each term ``coeff*v^e*...`` with
    the coefficient omitted when it is 1 and the term has a variable.  Raises
    ValueError on anything else, including repeated monomials and zero
    coefficients.
    """
    index = {name: i for i, name in enumerate(variables)}
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    pieces = [(1, tokens[0])]
    if len(tokens) % 2 == 0:
        raise ValueError(f"dangling sign in {text[:60]!r}")
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in ("+", "-"):
            raise ValueError(f"expected + or -, got {sign!r}")
        pieces.append((1 if sign == "+" else -1, body))
    terms: dict[tuple[int, ...], int] = {}
    for position, (sign, body) in enumerate(pieces):
        if position == 0 and body.startswith("-"):
            sign, body = -1, body[1:]
        factors = body.split("*")
        coeff = 1
        if factors[0].isdigit():
            coeff = int(factors.pop(0))
        exps = [0] * len(variables)
        for factor in factors:
            match = _FACTOR.match(factor)
            if match is None or match.group(1) not in index:
                raise ValueError(f"bad factor {factor!r}")
            exps[index[match.group(1)]] += int(match.group(2) or 1)
        key = tuple(exps)
        if coeff == 0 or key in terms:
            raise ValueError(f"not canonical at term {body[:40]!r}")
        terms[key] = sign * coeff
    return terms


def evaluate(terms: Mapping[tuple[int, ...], int], values: Sequence[int]) -> int:
    total = 0
    for exps, coeff in terms.items():
        for value, e in zip(values, exps):
            if e:
                coeff *= value**e
        total += coeff
    return total


def eval_canonical(text: str, variables: Sequence[str], point: Mapping[str, int]) -> int:
    return evaluate(parse_canonical(text, variables), [point[v] for v in variables])


def linear_recurrence(coeffs: Sequence[int], initial: Sequence[int], n_max: int) -> list[int]:
    """[P_0..P_n_max] for P_(m+k) = c_1 P_(m+k-1) + ... + c_k P_m."""
    seq = list(initial[: n_max + 1])
    while len(seq) <= n_max:
        seq.append(sum(c * seq[-i] for i, c in enumerate(coeffs, start=1)))
    return seq


def elementary_symmetric(roots: Sequence[int]) -> list[int]:
    """[e_1(r), ..., e_k(r)]."""
    e = [1] + [0] * len(roots)
    for r in roots:
        for j in range(len(roots), 0, -1):
            e[j] += r * e[j - 1]
    return e[1:]


def complete_homogeneous(roots: Sequence[int], n: int) -> int:
    """h_n(r) = sum over multisets of size n of the product of their members."""
    if n < 0:
        return 0
    row = [1] + [0] * n
    for r in roots:
        for m in range(1, n + 1):
            row[m] += r * row[m - 1]
    return row[n]


def glucas_point(roots: Sequence[int]) -> dict[str, int]:
    """The point x_i = e_i(r) of the generalized Lucas variables x1..xk."""
    return {f"x{i}": e for i, e in enumerate(elementary_symmetric(roots), start=1)}


def glucas_coeff_values(roots: Sequence[int]) -> list[int]:
    """c_i = (-1)^(i+1) e_i(r): the characteristic polynomial is prod (X - r_j)."""
    return [(-1) ** i * e for i, e in enumerate(elementary_symmetric(roots))]


def glucas(roots: Sequence[int], n: int) -> int:
    """P_n of the delta-initial generalized Lucas sequence at x_i = e_i(r)."""
    return complete_homogeneous(roots, n - len(roots) + 1)


def fibonacci_uv(u: int, v: int, n: int) -> int:
    return (u**n - v**n) // (u - v)


def lucas_uv(u: int, v: int, n: int) -> int:
    return u**n + v**n


def dickson_d(u: int, v: int, n: int) -> int:
    return u**n + v**n


def dickson_e(u: int, v: int, n: int) -> int:
    return (u ** (n + 1) - v ** (n + 1)) // (u - v)


def rel_close(approx: complex, exact: int, tol: float) -> bool:
    return abs(approx - exact) <= tol * max(1, abs(exact))
