import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recpoly.binet
from recpoly import (
    RootFindingError,
    RootProfile,
    StructuralError,
    binet_distinct,
    binet_multiple,
    binet_single,
    char_roots,
    compositions,
    iterate_terms,
)
from support import random_integer_spec, spec_from_roots


def integer_recurrence(coeffs, n):
    """h_n = P^(k-1)_{n+k-1} of X^k - c_1 X^{k-1} - ... - c_k, in integers."""
    k = len(coeffs)
    h = [0] * (k - 1) + [1]
    while len(h) < n + k:
        h.append(sum(c * h[-i] for i, c in enumerate(coeffs, start=1)))
    return h[n + k - 1]


def monic_from_roots(roots):
    """Coefficients of prod (X - r), highest degree first."""
    monic = [1]
    for r in roots:
        monic = [a - r * b for a, b in zip(monic + [0], [0] + monic)]
    return monic


@st.composite
def root_multisets(draw):
    """Distinct integer roots in -9..9 with multiplicities 1-3, k <= 6."""
    roots = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True))
    mults = []
    for _ in roots:
        room = 6 - sum(mults)
        if room == 0:
            break
        mults.append(draw(st.integers(1, min(3, room))))
    return sorted(zip(roots, mults))


class TestCompositions:
    def test_small_cases(self):
        assert list(compositions(0, 3)) == [(0, 0, 0)]
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert sum(1 for _ in compositions(5, 3)) == math.comb(7, 2)

    def test_parts_must_be_positive(self):
        with pytest.raises(StructuralError):
            list(compositions(3, 0))


class TestCharRoots:
    def test_golden_ratio_pair(self):
        profile = char_roots([1, 1])  # X^2 - X - 1
        assert profile.all_simple() and profile.k == 2
        phi = (1 + 5**0.5) / 2
        psi = (1 - 5**0.5) / 2
        assert abs(profile.roots[0] - psi) < 1e-9
        assert abs(profile.roots[1] - phi) < 1e-9

    def test_double_root_cluster(self):
        # X^2 - 4X + 4 = (X - 2)^2, i.e. c = (4, -4).
        profile = char_roots([4, -4])
        assert profile.mults == (2,)
        assert abs(profile.roots[0] - 2) < 1e-5

    def test_double_roots_meet_the_catalog_tolerance(self):
        # (X - a)^2 (X - b): a double root located only to about the square
        # root of the working precision puts h_150 off by up to 2e-6 relative.
        n = 150
        for a in range(2, 10):
            for b in range(2, 10):
                if a == b:
                    continue
                coeffs = [2 * a + b, -(a * a + 2 * a * b), a * a * b]
                h = [0, 0, 1]  # delta initials; h_n is term n + 2
                while len(h) < n + 3:
                    h.append(coeffs[0] * h[-1] + coeffs[1] * h[-2] + coeffs[2] * h[-3])
                profile = char_roots(coeffs)
                assert sorted(profile.mults) == [1, 2]
                assert abs(binet_multiple(profile, n) - h[n + 2]) <= 1e-8 * h[n + 2], (a, b)

    def test_triple_roots_cluster(self):
        # (X - a)^3: the three estimates lie about eps^(1/3) apart, too far
        # for the pair radius; clustered and polished, h_60 is exact to 1e-8.
        n = 60
        for a in range(2, 10):
            coeffs = [3 * a, -3 * a * a, a**3]
            h = [0, 0, 1]  # delta initials; h_n is term n + 2
            while len(h) < n + 3:
                h.append(coeffs[0] * h[-1] + coeffs[1] * h[-2] + coeffs[2] * h[-3])
            profile = char_roots(coeffs)
            assert profile.mults == (3,), a
            assert abs(binet_multiple(profile, n) - h[n + 2]) <= 1e-8 * h[n + 2], a

    def test_two_double_roots_cluster(self):
        # (X - a)^2 (X - b)^2: next to another double root, a double root's
        # estimates can lie 1e-6 apart, as at 7 in (X - 6)^2 (X - 7)^2.
        for a in range(-9, 10):
            for b in range(a + 1, 14):
                coeffs = [2 * (a + b), -(a * a + 4 * a * b + b * b),
                          2 * a * b * (a + b), -(a * b) ** 2]
                assert char_roots(coeffs).mults == (2, 2), (a, b)
        n, coeffs = 40, [26, -253, 1092, -1764]
        h = [0, 0, 0, 1]  # delta initials; h_n is term n + 3
        while len(h) < n + 4:
            h.append(sum(c * h[-i] for i, c in enumerate(coeffs, start=1)))
        profile = char_roots(coeffs)
        assert abs(binet_multiple(profile, n) - h[n + 3]) <= 1e-8 * h[n + 3]

    @pytest.mark.parametrize("roots, rel_tol", [
        ((3000, 3001, 3002), 1e-6),
        ((250, 251, 252, 253), 1e-6),
        (tuple(range(100, 106)), 1e-3),
    ])
    def test_close_distinct_roots_stay_simple(self, roots, rel_tol):
        # Neighbours inside the wide radius of an m-fold group, but the
        # derivatives do not vanish there: merged into one root of multiplicity
        # k, h_40 would be off by 1.4e-5, 3.1e-3 and 3.0e-2 relative.
        spec = spec_from_roots([(r, 1) for r in roots])
        k, n = len(roots), 40
        exact = iterate_terms(spec, n + k - 1)[-1].eval_int({})
        profile = char_roots([c.eval_int({}) for c in spec.coeffs])
        assert profile.mults == (1,) * k
        assert abs(binet_multiple(profile, n) - exact) <= rel_tol * exact

    def test_real_root_with_near_conjugate_pair(self):
        # (X - 10)(X - 10 - 0.001i)(X - 10 + 0.001i) = X^3 - 30X^2 + 300.000001X - 1000.00001
        profile = char_roots([30, -300.000001, 1000.00001])
        assert profile.mults == (1, 1, 1)
        for want in (10, 10 + 0.001j, 10 - 0.001j):
            assert min(abs(root - want) for root in profile.roots) < 1e-6

    def test_complex_pair(self):
        # X^2 + 1: roots +-i.
        profile = char_roots([0, -1])
        assert profile.all_simple()
        assert sorted(round(r.imag) for r in profile.roots) == [-1, 1]
        assert all(abs(r.real) < 1e-9 for r in profile.roots)

    def test_linear_case(self):
        profile = char_roots([7])
        assert profile.roots == (7 + 0j,) and profile.mults == (1,)

    def test_vieta_roundtrip(self):
        rng = random.Random(13)
        for _ in range(10):
            k = rng.randint(2, 5)
            coeffs = [rng.randint(-6, 6) for _ in range(k)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            profile = char_roots(coeffs)
            # Reconstruct the monic polynomial from the clustered roots.
            monic = [1 + 0j]
            for root, mult in zip(profile.roots, profile.mults):
                for _ in range(mult):
                    monic = [a - root * b for a, b in
                             zip(monic + [0], [0j] + monic)]
            scale = 1 + max(abs(c) for c in coeffs)
            for got, c in zip(monic[1:], coeffs):
                assert abs(got - (-c)) < 1e-6 * scale

    @settings(max_examples=150, deadline=None)
    @given(multiset=root_multisets(), n=st.integers(0, 60))
    def test_integer_root_multisets(self, multiset, n):
        # Multiplicities are exact, roots accurate to rounding, and h_n is
        # within 1e-8 of the integer recurrence relative to h_n over |roots|,
        # the scale of the sum's rounding (h_n itself may cancel to 0).
        expanded = [r for r, m in multiset for _ in range(m)]
        coeffs = [-c for c in monic_from_roots(expanded)[1:]]
        profile = char_roots(coeffs)
        found = sorted((round(z.real), m) for z, m in zip(profile.roots, profile.mults))
        assert found == multiset
        for z in profile.roots:
            assert abs(z - round(z.real)) <= 1e-9 * max(1, abs(z))
        scale = integer_recurrence([-c for c in monic_from_roots([abs(r) for r in expanded])[1:]], n)
        want = integer_recurrence(coeffs, n)
        assert abs(binet_multiple(profile, n) - want) <= 1e-8 * max(1, scale)

    def test_rejects_non_real_coefficients(self):
        with pytest.raises(StructuralError):
            char_roots([1, 2j])
        assert char_roots([complex(4), complex(-4)]).mults == (2,)

    def test_residual_failure_raised(self, monkeypatch):
        monkeypatch.setattr(recpoly.binet, "MAX_ITERATIONS", 1)
        with pytest.raises(RootFindingError):
            char_roots([1000.0, -999999.25])

    def test_profile_validation(self):
        with pytest.raises(StructuralError):
            RootProfile((1 + 0j,), (1, 1))
        with pytest.raises(StructuralError):
            RootProfile((1 + 0j,), (0,))


class TestBinetDistinct:
    def test_fibonacci_number(self):
        profile = char_roots([1, 1])
        # F_{n+1} = sum over i+j = n of phi^i psi^j; n = 9 gives F_10 = 55.
        assert abs(binet_distinct(profile, 9) - 55) < 1e-8

    def test_matches_iteration_on_random_simple_specs(self):
        rng = random.Random(19)
        done = 0
        while done < 8:
            spec = random_integer_spec(rng, max_order=4, bound=4)
            if spec.coeffs[-1].eval_int({}) == 0:
                continue
            profile = char_roots([c.eval_int({}) for c in spec.coeffs])
            if not profile.all_simple():
                continue
            terms = iterate_terms(spec, spec.order + 11)
            scale = 1 + max(abs(t.eval_int({})) for t in terms)
            for n in range(12):
                expected = terms[n + spec.order - 1].eval_int({})
                assert abs(binet_distinct(profile, n) - expected) < 1e-8 * scale
            done += 1

    def test_rejects_multiple_roots(self):
        profile = RootProfile((2 + 0j,), (2,))
        with pytest.raises(StructuralError):
            binet_distinct(profile, 3)

    def test_is_binet_multiple_on_simple_profiles(self):
        profiles = [char_roots([1, 1]), char_roots([2, 5, -6]), char_roots([0, 0, 0, -1]),
                    char_roots([1, -1, 3]), RootProfile((2 + 0j, 5 + 0j, 9 + 0j), (1, 1, 1))]
        for profile in profiles:
            assert profile.all_simple()
            for n in range(40):
                assert binet_distinct(profile, n) == binet_multiple(profile, n)
        with pytest.raises(StructuralError):
            binet_distinct(RootProfile((4 + 0j, 6 + 0j), (2, 1)), 5)

    def test_periodic_value_at_n_10000(self):
        # X^4 + 1: P_{n+4} = -P_n, so h_10000 = P_10003 = P_3 = 1.
        profile = char_roots([0, 0, 0, -1])
        assert profile.all_simple()
        want = integer_recurrence([0, 0, 0, -1], 10_000)
        assert want == 1
        assert abs(binet_distinct(profile, 10_000) - want) < 1e-8


class TestBinetMultiple:
    def test_double_plus_simple_root(self):
        # (X - 1)^2 (X - 2): delta-initial values by iteration, and
        # n = 3 term P_5 = sum (i1 + 1) 2^{i2} over i1 + i2 = 3, which is 26.
        spec = spec_from_roots([(1, 2), (2, 1)])
        profile = RootProfile((1 + 0j, 2 + 0j), (2, 1))
        terms = iterate_terms(spec, 12)
        assert abs(binet_multiple(profile, 3) - 26) < 1e-8
        assert terms[5].eval_int({}) == 26
        for n in range(10):
            expected = terms[n + 2].eval_int({})
            assert abs(binet_multiple(profile, n) - expected) < 1e-8 * (1 + abs(expected))

    def test_reduces_to_distinct(self):
        profile = char_roots([2, 5, -6])
        assert profile.all_simple()
        for n in range(10):
            a = binet_multiple(profile, n)
            b = binet_distinct(profile, n)
            assert abs(a - b) < 1e-12 * (1 + abs(b))

    def test_triple_root_matches_single_root_formula(self):
        profile = RootProfile((3 + 0j,), (3,))
        for n in range(12):
            assert abs(binet_multiple(profile, n) - binet_single(3, 3, n)) < 1e-6 * 3**n

    def test_matches_iteration_on_constructed_specs(self):
        cases = [
            [(2, 2)],
            [(-1, 2), (3, 1)],
            [(1, 3)],
            [(2, 1), (-2, 1), (1, 2)],
        ]
        for roots in cases:
            spec = spec_from_roots(roots)
            profile = RootProfile(
                tuple(complex(a) for a, _ in roots), tuple(m for _, m in roots)
            )
            terms = iterate_terms(spec, spec.order + 11)
            for n in range(12):
                expected = terms[n + spec.order - 1].eval_int({})
                assert abs(binet_multiple(profile, n) - expected) < 1e-8 * (1 + abs(expected))

    def test_value_at_n_10000(self):
        # (X^2 + 1)^2: two double roots on the unit circle, h_10000 = 5001.
        coeffs = [0, -2, 0, -1]
        profile = char_roots(coeffs)
        assert profile.mults == (2, 2)
        want = integer_recurrence(coeffs, 10_000)
        assert want == 5001
        assert abs(binet_multiple(profile, 10_000) - want) < 1e-8 * want


class TestBinetSingle:
    def test_binomial_weight(self):
        # Five-fold root alpha = 1: the value is binom(n + 4, n).
        assert binet_single(1, 5, 2) == math.comb(6, 2)
        assert binet_single(1, 5, 0) == 1
        assert abs(binet_single(2, 3, 4) - math.comb(6, 4) * 16) < 1e-12

    def test_matches_iteration(self):
        spec = spec_from_roots([(2, 4)])
        terms = iterate_terms(spec, 15)
        for n in range(12):
            expected = terms[n + 3].eval_int({})
            assert abs(binet_single(2, 4, n) - expected) < 1e-8 * (1 + abs(expected))

    def test_bad_arguments(self):
        with pytest.raises(StructuralError):
            binet_single(1, 0, 2)
        with pytest.raises(StructuralError):
            binet_single(1, 2, -1)
