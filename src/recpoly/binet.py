"""Root-based numeric engines for the delta-initial sequence P^(k-1).

The coefficients are taken as exact rationals, so the multiplicities of the
characteristic polynomial's roots are exact for the given values: repeated
gcds with the derivative split it into square-free factors by multiplicity
(Yun, "On square-free decomposition algorithms", SYMSAC 1976), and
Durand-Kerner simultaneous iteration finds the roots of each factor, where
every root is simple.  The value P^(k-1)_{n+k-1} is the complete homogeneous
sum h_n over the roots counted with multiplicity, the X^n coefficient of
prod (1 - alpha X)^(-m), or binom(n+k-1, n) alpha^n for a single root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import RootFindingError, StructuralError

RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class RootProfile:
    """Distinct roots of a characteristic polynomial with multiplicities."""

    roots: tuple[complex, ...]
    mults: tuple[int, ...]

    def __post_init__(self):
        if len(self.roots) != len(self.mults):
            raise StructuralError("roots and multiplicities must align")
        if any(m < 1 for m in self.mults):
            raise StructuralError("multiplicities must be positive")

    @property
    def k(self) -> int:
        return sum(self.mults)

    def all_simple(self) -> bool:
        return all(m == 1 for m in self.mults)


def _poly_eval(monic: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in monic:
        acc = acc * z + c
    return acc


# Exact polynomials are coefficient lists, highest degree first; zero is [].

def _derivative(poly: Sequence) -> list:
    degree = len(poly) - 1
    return [c * (degree - i) for i, c in enumerate(poly[:-1])]


def _divmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder; the remainder has no leading zeros."""
    rem, quo = list(num), []
    for i in range(len(num) - len(den) + 1):
        t = rem[i] / den[0]
        quo.append(t)
        for j, d in enumerate(den):
            rem[i + j] -= t * d
    rem = rem[len(quo):]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quo, rem


def _gcd(a: Sequence, b: Sequence) -> list:
    """The monic gcd of a nonzero a and any b."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[0] for c in a]


def _square_free_factors(monic: Sequence) -> list[list]:
    """[f_1, f_2, ...] with monic = prod f_m^m, each f_m square-free (Yun)."""
    slope = _derivative(monic)
    a = _gcd(monic, slope)
    b, c = _divmod(monic, a)[0], _divmod(slope, a)[0]
    factors = []
    while len(b) > 1:
        d = [x - y for x, y in zip(c, _derivative(b))]
        while d and d[0] == 0:
            d.pop(0)
        a = _gcd(b, d)
        factors.append(a)
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
    return factors


def _simple_roots(factor: Sequence) -> list[complex]:
    """The roots of a monic square-free exact polynomial, by Durand-Kerner."""
    k = len(factor) - 1
    if k < 2:
        # Rooted from the exact value, so a zero imaginary part stays +0.
        return [complex(-factor[1])] if k else []
    monic = [complex(c) for c in factor]
    radius = 1.0 + max(abs(c) for c in monic[1:])
    seed = 0.4 + 0.9j
    roots = [radius * seed ** (j + 1) for j in range(k)]
    scale = max(1.0, radius)
    for _ in range(MAX_ITERATIONS):
        max_step = 0.0
        for i in range(k):
            denom = 1 + 0j
            for j in range(k):
                if j != i:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                roots[i] += (1e-8 + 1e-8j) * scale
                max_step = scale
                continue
            step = _poly_eval(monic, roots[i]) / denom
            roots[i] -= step
            max_step = max(max_step, abs(step))
        if max_step < 1e-14 * scale:
            break
    return roots


def char_roots(coeff_values: Sequence[complex]) -> RootProfile:
    """All roots of X^k - c_1 X^{k-1} - ... - c_k with their multiplicities.

    The c_i must be real (int, float, or complex with zero imaginary part);
    each is read as the exact rational it holds, so the multiplicities are
    exact and only the roots themselves are approximate.  Raises
    RootFindingError when a root's residual exceeds the tolerance at its
    scale.
    """
    # Imported here: nothing else in ``import recpoly`` loads fractions.
    from fractions import Fraction

    k = len(coeff_values)
    if k < 1:
        raise StructuralError("need at least one coefficient")
    exact = [Fraction(1)]
    for c in coeff_values:
        if isinstance(c, complex):
            if c.imag:
                raise StructuralError(f"coefficients must be real, got {c}")
            c = c.real
        exact.append(-Fraction(c))
    try:
        monic = [complex(c) for c in exact]
    except OverflowError:
        raise StructuralError("a coefficient is too large for floating-point root finding") from None
    found = sorted(((root, m) for m, factor in enumerate(_square_free_factors(exact), start=1)
                    for root in _simple_roots(factor)),
                   key=lambda r: (r[0].real, r[0].imag))
    coeff_scale = 1.0 + max(abs(c) for c in monic[1:])
    for root, _ in found:
        tol = RESIDUAL_TOL * coeff_scale * max(1.0, abs(root)) ** k
        residual = abs(_poly_eval(monic, root))
        if residual > tol:
            raise RootFindingError(
                f"root {root} has residual {residual:.3e} above tolerance {tol:.3e} "
                f"after {MAX_ITERATIONS} iterations"
            )
    return RootProfile(tuple(r for r, _ in found), tuple(m for _, m in found))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts < 1:
        raise StructuralError(f"parts must be >= 1, got {parts}")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def binet_distinct(profile: RootProfile, n: int) -> complex:
    """P^(k-1)_{n+k-1} = sum over i_1+...+i_k = n of alpha_1^{i_1}...alpha_k^{i_k}."""
    if not profile.all_simple():
        raise StructuralError("binet_distinct requires all multiplicities equal to 1")
    return binet_multiple(profile, n)


def binet_multiple(profile: RootProfile, n: int) -> complex:
    """h_n over the roots counted with multiplicity: the X^n coefficient of
    prod (1 - alpha X)^(-m), one pass h_e += alpha h_{e-1} per root and
    multiplicity, so O(n k).  Equals :func:`binet_distinct` when every
    multiplicity is 1.
    """
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    h = [1 + 0j] + [0j] * n
    for root, mult in zip(profile.roots, profile.mults):
        for _ in range(mult):
            for e in range(1, n + 1):
                h[e] += root * h[e - 1]
    return h[n]


def binet_single(alpha: complex, k: int, n: int) -> complex:
    """P^(k-1)_{n+k-1} = binom(n+k-1, n) alpha^n for a k-fold single root."""
    if k < 1:
        raise StructuralError(f"k must be >= 1, got {k}")
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    return math.comb(n + k - 1, n) * complex(alpha) ** n
