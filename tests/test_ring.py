import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VARS, integer_points, multipolys, term_maps
from recpoly import MultiPoly, QuadExtElem, StructuralError, VariableMismatchError, parse_poly
from recpoly.ring import DEGREE_GUARD


def p(text_terms, variables):
    return MultiPoly(variables, text_terms)


X = ("x",)
XA = ("x", "a")


class TestBasicArithmetic:
    def test_additive_inverse_gives_zero(self):
        x = MultiPoly.var("x", X)
        assert (x + (-x)).is_zero()
        assert (x + (-x)).terms == {}

    def test_disjoint_supports(self):
        x = MultiPoly.var("x", X)
        assert (x**2 + 1) + x == p({(2,): 1, (1,): 1, (0,): 1}, X)

    def test_like_term_merge(self):
        x = MultiPoly.var("x", X)
        assert 2 * x + 3 * x == 5 * x

    def test_product_difference_of_squares(self):
        x = MultiPoly.var("x", X)
        assert (x + 1) * (x - 1) == x**2 - 1

    def test_multiply_by_zero(self):
        x = MultiPoly.var("x", X)
        assert (x**3 + 7 * x) * MultiPoly.zero(X) == MultiPoly.zero(X)

    def test_binomial_square(self):
        xy = ("x", "y")
        x, y = MultiPoly.var("x", xy), MultiPoly.var("y", xy)
        assert (x + y) * (x + y) == x**2 + 2 * x * y + y**2

    def test_pow(self):
        x = MultiPoly.var("x", X)
        assert (x + 1) ** 0 == 1
        assert (x**3) ** 2 == x**6
        xy = ("x", "y")
        x, y = MultiPoly.var("x", xy), MultiPoly.var("y", xy)
        assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3

    def test_variable_mismatch_is_an_error(self):
        x = MultiPoly.var("x", X)
        other = MultiPoly.var("x", XA)
        with pytest.raises(VariableMismatchError):
            x + other
        with pytest.raises(VariableMismatchError):
            x * other

    def test_negative_pow_rejected(self):
        with pytest.raises(StructuralError):
            MultiPoly.var("x", X) ** -1


class TestEvaluation:
    def test_eval_int(self):
        x = MultiPoly.var("x", X)
        assert (x**2 + 1).eval_int({"x": 1}) == 2
        # F_5 of the classical recurrence F_{n+2} = x F_{n+1} + F_n at x = 1
        assert (x**4 + 3 * x**2 + 1).eval_int({"x": 1}) == 5
        assert MultiPoly.zero(X).eval_int({"x": 12345}) == 0

    def test_eval_int_missing_assignment(self):
        x = MultiPoly.var("x", XA)
        with pytest.raises(VariableMismatchError):
            (x + 1).eval_int({"x": 1})

    def test_eval_complex(self):
        x = MultiPoly.var("x", X)
        assert abs((x**2 + 1).eval_complex({"x": 1j})) < 1e-12
        assert (x).eval_complex({"x": 2.5}) == 2.5
        assert abs((x**2 - 2).eval_complex({"x": 2**0.5})) < 1e-12


class TestCanonicalString:
    def test_golden_examples(self):
        x, a = MultiPoly.var("x", XA), MultiPoly.var("a", XA)
        assert (x**2 - 2 * a).canonical() == "x^2 - 2*a"
        assert MultiPoly.zero(XA).canonical() == "0"
        assert (x**5 - 4 * x**3 * a + 3 * x * a**2).canonical() == "x^5 - 4*x^3*a + 3*x*a^2"

    def test_constant_and_unit_coefficients(self):
        x = MultiPoly.var("x", X)
        assert (x + 1).canonical() == "x + 1"
        assert MultiPoly.const(X, -7).canonical() == "-7"
        assert (-x).canonical() == "-1*x"  # explicit coefficient on a leading negative

    def test_graded_lex_tie_break(self):
        xy = ("x", "y")
        x, y = MultiPoly.var("x", xy), MultiPoly.var("y", xy)
        assert (x * y**2 + x**2 * y).canonical() == "x^2*y + x*y^2"


class TestRingAxioms:
    @settings(max_examples=60)
    @given(multipolys(), multipolys(), multipolys())
    def test_associativity_and_commutativity(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f

    @settings(max_examples=60)
    @given(multipolys(), multipolys(), multipolys())
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60)
    @given(multipolys())
    def test_additive_inverse(self, f):
        assert (f + (-f)).is_zero()

    @settings(max_examples=60)
    @given(multipolys(), multipolys(), integer_points())
    def test_eval_is_a_ring_homomorphism(self, f, g, point):
        assert (f + g).eval_int(point) == f.eval_int(point) + g.eval_int(point)
        assert (f * g).eval_int(point) == f.eval_int(point) * g.eval_int(point)


class TestQuadExt:
    def _delta(self):
        xy = ("x", "y")
        x, y = MultiPoly.var("x", xy), MultiPoly.var("y", xy)
        return x * x + 4 * y, x, y

    def test_defining_relation(self):
        delta, _, _ = self._delta()
        root = QuadExtElem(MultiPoly.zero(delta.variables),
                           MultiPoly.const(delta.variables, 1), delta)
        sq = root * root
        assert sq.u == delta and sq.v.is_zero()

    def test_multiplicative_identity(self):
        delta, x, y = self._delta()
        elem = QuadExtElem(x, y, delta)
        assert QuadExtElem.one(delta) * elem == elem

    def test_constant_discriminant_example(self):
        v = ()
        five = MultiPoly.const(v, 5)
        elem = QuadExtElem(MultiPoly.const(v, 1), MultiPoly.const(v, 1), five)
        sq = elem**2
        assert sq.u == 6 and sq.v == 2

    def test_lucas_fib_power_doubling(self):
        # (L_1 + sqrt(d) F_1)^2 = 2 (L_2 + sqrt(d) F_2) for q1=x, q2=y
        delta, x, y = self._delta()
        elem = QuadExtElem(x, MultiPoly.const(delta.variables, 1), delta)
        sq = elem**2
        l2 = x * x + 2 * y
        assert sq.u == 2 * l2
        assert sq.v == 2 * x

    def test_discriminant_mismatch(self):
        delta, x, y = self._delta()
        a = QuadExtElem(x, y, delta)
        b = QuadExtElem(x, y, delta + 1)
        with pytest.raises(VariableMismatchError):
            a * b

    @settings(max_examples=40)
    @given(multipolys(max_terms=3, max_exp=2, coeff_bound=9),
           multipolys(max_terms=3, max_exp=2, coeff_bound=9),
           multipolys(max_terms=3, max_exp=2, coeff_bound=9),
           multipolys(max_terms=3, max_exp=2, coeff_bound=9),
           multipolys(max_terms=2, max_exp=1, coeff_bound=9))
    def test_commutative_associative(self, u1, v1, u2, v2, delta):
        a = QuadExtElem(u1, v1, delta)
        b = QuadExtElem(u2, v2, delta)
        c = QuadExtElem(u1 + u2, v1 * v2, delta)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_pow_additivity(self):
        delta, x, y = self._delta()
        a = QuadExtElem(x + 1, y, delta)
        for m, n in [(0, 3), (2, 2), (1, 4), (3, 2)]:
            assert a ** (m + n) == (a**m) * (a**n)


class TestDegreeGuard:
    def test_parsed_power_over_guard(self):
        with pytest.raises(StructuralError):
            parse_poly("x^20000000", X)

    def test_product_over_guard(self):
        x = MultiPoly.var("x", X)
        top = x**DEGREE_GUARD
        assert top.total_degree() == DEGREE_GUARD
        with pytest.raises(StructuralError):
            top * x
        with pytest.raises(StructuralError):
            QuadExtElem(top, x, x) ** 2


# Reference kernel: tuple-keyed exponent vectors, the product, sum and
# graded-lex order that the packed kernel must reproduce.

def ref_normalize(terms):
    return {exps: c for exps, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return ref_normalize(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return ref_normalize(out)


def ref_canonical(variables, terms):
    if not terms:
        return "0"
    order = sorted(terms, key=lambda exps: (-sum(exps), tuple(-e for e in exps)))
    pieces = []
    for idx, exps in enumerate(order):
        coeff = terms[exps]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exps) if e]
        if abs(coeff) != 1 or not factors or (idx == 0 and coeff < 0):
            factors.insert(0, str(abs(coeff)))
        if idx == 0:
            pieces.append(("-" if coeff < 0 else "") + "*".join(factors))
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    return " ".join(pieces)


def ref_eval(terms, variables, point):
    total = 0
    for exps, c in terms.items():
        for name, e in zip(variables, exps):
            c *= point[name] ** e
        total += c
    return total


VARIABLE_LISTS = st.sampled_from([(), ("x",), ("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w")])


class TestPackedKernelAgainstReference:
    @settings(max_examples=150)
    @given(st.data())
    def test_arithmetic_and_order_near_the_guard(self, data):
        variables = data.draw(VARIABLE_LISTS)
        ta = data.draw(term_maps(variables, near_guard=True))
        tb = data.draw(term_maps(variables, near_guard=True))
        a, b = MultiPoly(variables, ta), MultiPoly(variables, tb)
        ra, rb = ref_normalize(ta), ref_normalize(tb)
        assert a.canonical() == ref_canonical(variables, ra)
        assert a.total_degree() == max(map(sum, ra), default=-1)
        assert (a + b).canonical() == ref_canonical(variables, ref_add(ra, rb))
        assert (-a).canonical() == ref_canonical(variables, {e: -c for e, c in ra.items()})
        if ra and rb and max(map(sum, ra)) + max(map(sum, rb)) > DEGREE_GUARD:
            with pytest.raises(StructuralError):
                a * b
        else:
            assert (a * b).canonical() == ref_canonical(variables, ref_mul(ra, rb))
        signs = {v: data.draw(st.integers(min_value=-1, max_value=1)) for v in variables}
        assert a.eval_int(signs) == ref_eval(ra, variables, signs)

    @settings(max_examples=60)
    @given(st.data())
    def test_evaluation(self, data):
        variables = data.draw(VARIABLE_LISTS)
        terms = ref_normalize(data.draw(term_maps(variables)))
        poly = MultiPoly(variables, terms)
        point = data.draw(integer_points(variables))
        exact = ref_eval(terms, variables, point)
        assert poly.eval_int(point) == exact
        # Rounding error scales with the terms' magnitudes, not with their sum.
        scale = ref_eval({e: abs(c) for e, c in terms.items()}, variables,
                         {v: abs(value) for v, value in point.items()})
        assert abs(poly.eval_complex(point) - exact) <= 1e-9 * max(1, scale)
