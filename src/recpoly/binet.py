"""Root-based numeric engines for the delta-initial sequence P^(k-1).

Roots of the characteristic polynomial are found by Durand-Kerner
simultaneous iteration and clustered into multiplicities; the value
P^(k-1)_{n+k-1} is then the complete homogeneous sum over the roots
(distinct case), the binomial-weighted composition sum (multiple roots),
or binom(n+k-1, n) alpha^n (single root).

Composition sums are enumerated directly, matching the shape of the
formulas they implement; an enumeration budget keeps that desk-scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetExceededError, RootFindingError, StructuralError

COMPOSITION_BUDGET = 5_000_000
CLUSTER_RADIUS = 1e-6
RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 1000
POLISH_STEPS = 4


@dataclass(frozen=True)
class RootProfile:
    """Clustered roots of a characteristic polynomial with multiplicities."""

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


def _derivative(poly: Sequence[complex]) -> list[complex]:
    degree = len(poly) - 1
    return [c * (degree - i) for i, c in enumerate(poly[:-1])]


def _multiple_root(monic: Sequence[complex], estimates: Sequence[complex]) -> complex | None:
    """The m-fold root that m estimates approximate, or None if there is none.

    Newton's method on the (m-1)-th derivative, where the root is simple,
    refines their centroid.  It is kept only where the polynomial and its
    first m-1 derivatives vanish: each within RESIDUAL_TOL times its rounding
    scale, sum |a_i| max(1, |z|)^i.
    """
    m = len(estimates)
    root = sum(estimates) / m
    derivatives = [list(monic)]
    for _ in range(m):
        derivatives.append(_derivative(derivatives[-1]))
    poly, slope = derivatives[m - 1], derivatives[m]
    for _ in range(POLISH_STEPS):
        denom = _poly_eval(slope, root)
        if denom == 0:
            break
        step = _poly_eval(poly, root) / denom
        root -= step
        if abs(step) <= 1e-16 * max(1.0, abs(root)):
            break
    w = max(1.0, abs(root))
    if all(abs(_poly_eval(d, root)) <= RESIDUAL_TOL * _poly_eval([abs(c) for c in d], w).real
           for d in derivatives[:m]):
        return root
    return None


def _clusters(monic: Sequence[complex], roots: Sequence[complex]) -> list[tuple[complex, int]]:
    """(root, multiplicity) pairs, largest groups first (any part of an
    m-fold group looks like a smaller group spread too wide).

    Durand-Kerner places an m-fold root's estimates about eps^(1/m) apart, so
    the m estimates nearest one of them are a candidate when they lie within
    relative distance CLUSTER_RADIUS * eps^(1/m - 1/2) of it.  A double root
    next to another multiple root is worse conditioned: in (X-6)^2 (X-7)^2
    the two estimates of 7 lie about 1e-6 apart relative to 7, so m = 2 gets
    100 times that radius.  Distinct close roots can lie that near too: :func:`_multiple_root`
    decides.
    """
    left, groups = list(range(len(roots))), []
    for m in range(len(roots), 1, -1):
        radius = CLUSTER_RADIUS * sys.float_info.epsilon ** (1 / m - 0.5) * (100 if m == 2 else 1)
        for i in range(len(roots)):
            near = sorted(left, key=lambda j: abs(roots[j] - roots[i]))[:m]
            if i in left and len(near) == m and all(
                    abs(roots[j] - roots[i]) <= radius * max(1.0, abs(roots[i]), abs(roots[j]))
                    for j in near):
                root = _multiple_root(monic, [roots[j] for j in near])
                if root is not None:
                    groups.append((root, m))
                    left = [j for j in left if j not in near]
    return groups + [(roots[i], 1) for i in left]


def char_roots(coeff_values: Sequence[complex]) -> RootProfile:
    """All k roots of X^k - c_1 X^{k-1} - ... - c_k, clustered by multiplicity.

    Durand-Kerner simultaneous iteration; :func:`_clusters` merges the
    estimates of each multiple root into one, with summed multiplicity.
    Durand-Kerner locates an m-fold root only to about the m-th root of the
    working precision, so each merged root is polished by a few Newton steps
    on the (m-1)-th derivative, where the root is simple.  Raises
    RootFindingError when a reported root's residual exceeds the tolerance
    at its scale.
    """
    k = len(coeff_values)
    if k < 1:
        raise StructuralError("need at least one coefficient")
    monic = [1 + 0j] + [-complex(c) for c in coeff_values]
    if k == 1:
        roots = [complex(coeff_values[0])]
    else:
        radius = 1.0 + max(abs(c) for c in coeff_values)
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

    clusters = sorted(_clusters(monic, roots),
                      key=lambda c: (c[0].real, c[0].imag))
    centroids = [c for c, _ in clusters]
    coeff_scale = 1.0 + max(abs(c) for c in coeff_values)
    for root in centroids:
        tol = RESIDUAL_TOL * coeff_scale * max(1.0, abs(root)) ** k
        residual = abs(_poly_eval(monic, root))
        if residual > tol:
            raise RootFindingError(
                f"root {root} has residual {residual:.3e} above tolerance {tol:.3e} "
                f"after {MAX_ITERATIONS} iterations"
            )
    return RootProfile(tuple(centroids), tuple(m for _, m in clusters))


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


def _check_budget(total: int, parts: int) -> None:
    count = math.comb(total + parts - 1, parts - 1)
    if count > COMPOSITION_BUDGET:
        raise BudgetExceededError(
            f"composition count {count} exceeds enumeration budget {COMPOSITION_BUDGET}"
        )


def _power_table(value: complex, top: int) -> list[complex]:
    row = [1 + 0j]
    for _ in range(top):
        row.append(row[-1] * value)
    return row


def binet_distinct(profile: RootProfile, n: int) -> complex:
    """P^(k-1)_{n+k-1} = sum over i_1+...+i_k = n of alpha_1^{i_1}...alpha_k^{i_k}."""
    if not profile.all_simple():
        raise StructuralError("binet_distinct requires all multiplicities equal to 1")
    return binet_multiple(profile, n)


def binet_multiple(profile: RootProfile, n: int) -> complex:
    """The binomial-weighted composition sum over the distinct roots.

    Equals :func:`binet_distinct` when every multiplicity is 1.
    """
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    s = len(profile.roots)
    _check_budget(n, s)
    # Each row holds binom(e+m-1, e) alpha^e; a simple root's weights are 1.
    powers = []
    for root, mult in zip(profile.roots, profile.mults):
        row = _power_table(root, n)
        if mult > 1:
            row = [math.comb(e + mult - 1, e) * p for e, p in enumerate(row)]
        powers.append(row)
    total = 0j
    for counts in compositions(n, s):
        term = 1 + 0j
        for row, e in zip(powers, counts):
            term *= row[e]
        total += term
    return total


def binet_single(alpha: complex, k: int, n: int) -> complex:
    """P^(k-1)_{n+k-1} = binom(n+k-1, n) alpha^n for a k-fold single root."""
    if k < 1:
        raise StructuralError(f"k must be >= 1, got {k}")
    if n < 0:
        raise StructuralError(f"n must be >= 0, got {n}")
    return math.comb(n + k - 1, n) * complex(alpha) ** n
