import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VARS, integer_points, multipolys, term_maps
from recpoly import (
    BudgetExceededError,
    MultiPoly,
    QuadExtElem,
    RecurrenceSpec,
    StructuralError,
    VariableMismatchError,
    iterate_terms,
    parse_poly,
    term_budget,
)
from recpoly.closedform import hessenberg_det
from recpoly.ring import DEGREE_GUARD, _addmul


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


class TestPower:
    def test_multipoly_matches_repeated_products(self):
        xy = ("x", "y")
        base = MultiPoly.var("x", xy) - 2 * MultiPoly.var("y", xy) + 3
        expected = MultiPoly.const(xy, 1)
        for e in range(65):
            assert base**e == expected, e
            expected = expected * base

    def test_quadext_matches_repeated_products(self):
        x = MultiPoly.var("x", X)
        base = QuadExtElem(x - 1, MultiPoly.const(X, 2), x * x + 4)
        expected = QuadExtElem.one(base.delta)
        for e in range(65):
            assert base**e == expected, e
            expected = expected * base

    def test_no_square_after_the_last_bit(self):
        # x^(2^19) squares up to 2^19 only; one more square would pass the guard.
        x = MultiPoly.var("x", X)
        assert (x ** (1 << 19)).total_degree() == 1 << 19


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


class TestTermBudget:
    def test_sums_and_products_over_the_limit_raise(self):
        v = ("x", "y")
        x, y = MultiPoly.var("x", v), MultiPoly.var("y", v)
        with term_budget(2):
            assert (x + y).term_count() == 2
            with pytest.raises(BudgetExceededError, match="^term count 3 exceeds budget 2$"):
                x + y + 1
            with pytest.raises(BudgetExceededError):
                (x + 1) * (y + 1)
            with pytest.raises(BudgetExceededError):
                (x + 1) ** 2
            with term_budget(None):
                assert ((x + 1) * (y + 1)).term_count() == 4
            # Scalar multiples and negation cannot grow a term map.
            assert -(x + 1) * 5 == -5 * x - 5
        assert ((x + 1) * (y + 1)).term_count() == 4


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


SMALL_VARIABLE_LISTS = st.sampled_from([(), ("x",), ("x", "y"), ("x", "y", "z")])


class TestFusedProducts:
    @settings(max_examples=200)
    @given(st.data())
    def test_addmul_is_the_sum_of_products(self, data):
        # Small exponents and coefficients make products collide and cancel;
        # the product (-s, a, b) after (s, a, b) cancels a whole product, and
        # a scale of 0 adds nothing.
        variables = data.draw(SMALL_VARIABLE_LISTS)
        maps = term_maps(variables, max_terms=4, max_exp=2, coeff_bound=3).map(ref_normalize)
        scales = st.integers(min_value=-2, max_value=2)
        start = data.draw(maps)
        products = data.draw(st.lists(st.tuples(scales, maps, maps), min_size=1, max_size=4))
        if data.draw(st.booleans()):
            s, a, b = products[0]
            products.append((-s, a, b))
        acc = dict(MultiPoly(variables, start).terms)
        expected, reference = MultiPoly(variables, start), start
        for s, a, b in products:
            pa, pb = MultiPoly(variables, a), MultiPoly(variables, b)
            expected = expected + pa * pb * s
            reference = ref_add(reference, {e: s * c for e, c in ref_mul(a, b).items()})
        _addmul(acc, variables, [(s, MultiPoly(variables, a).terms, MultiPoly(variables, b).terms)
                                 for s, a, b in products])
        assert 0 not in acc.values()
        assert acc == expected.terms == MultiPoly(variables, reference).terms

    def test_zero_scale_and_cancelling_products_leave_no_zero(self):
        x = MultiPoly.var("x", X)
        one = MultiPoly.const(X, 1)
        acc = dict((x + 1).terms)
        # x + 1 + 0 + 2x(x + 1) - 2(x + 1)x - 1 = x
        _addmul(acc, X, [(0, x.terms, x.terms), (2, x.terms, (x + 1).terms),
                         (-2, (x + 1).terms, x.terms), (-1, one.terms, one.terms)])
        assert acc == x.terms

    def test_degree_guard_trips_before_acc_changes(self):
        x = MultiPoly.var("x", X)
        one = MultiPoly.const(X, 1)
        top = x**DEGREE_GUARD
        acc = dict((x + 1).terms)
        with pytest.raises(StructuralError):
            _addmul(acc, X, [(1, top.terms, x.terms)])
        assert acc == (x + 1).terms
        # A later product over the guard raises with the earlier products
        # added (their zeros swept) and nothing of its own or after it.
        with pytest.raises(StructuralError):
            _addmul(acc, X, [(1, x.terms, x.terms), (-1, one.terms, one.terms),
                             (1, top.terms, x.terms), (1, x.terms, x.terms)])
        assert acc == (x**2 + x).terms

    def test_budget_trips_in_the_middle_of_a_sum(self):
        v = ("x", "y", "z")
        x, y, z = (MultiPoly.var(name, v).terms for name in v)
        one = MultiPoly.const(v, 1).terms
        xy = (MultiPoly.var("x", v) * MultiPoly.var("y", v)).terms
        acc: dict = {}
        # x, x + y, y (a zero x held), y + z: zeros are swept before a count
        # is judged, so y + z fits a budget of 2 and y + z + xy does not.
        with term_budget(2):
            with pytest.raises(BudgetExceededError, match="^term count 3 exceeds budget 2$"):
                _addmul(acc, v, [(1, x, one), (1, y, one), (-1, x, one), (1, z, one),
                                 (1, xy, one), (1, x, one)])
        assert acc == MultiPoly(v, {(0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 0): 1}).terms

    def test_degree_guard_trips_in_fused_engines(self):
        x = MultiPoly.var("x", X)
        half = x ** (DEGREE_GUARD // 2 + 1)
        spec = RecurrenceSpec.make(X, [half, MultiPoly.const(X, 1)], [MultiPoly.const(X, 1), half])
        with pytest.raises(StructuralError):
            iterate_terms(spec, 2)
        with pytest.raises(StructuralError):
            QuadExtElem(half, x, x) * QuadExtElem(half, x, x)

    def test_budget_bounds_the_accumulated_sum(self):
        # Every product below has one term; only the accumulated sums have
        # two, so each raise comes from the fused accumulation.
        v = ("x", "y", "z")
        x, y, z = (MultiPoly.var(name, v) for name in v)
        one = MultiPoly.const(v, 1)
        spec = RecurrenceSpec.make(v, [x, y], [one, one])
        matrix = [[x, y], [-one, z]]
        with term_budget(1):
            with pytest.raises(BudgetExceededError, match="^term count 2 exceeds budget 1$"):
                iterate_terms(spec, 2)
            with pytest.raises(BudgetExceededError, match="^term count 2 exceeds budget 1$"):
                hessenberg_det(matrix)
            with pytest.raises(BudgetExceededError, match="^term count 2 exceeds budget 1$"):
                QuadExtElem(x, one, z) * QuadExtElem(y, one, z)
        with term_budget(2):
            assert iterate_terms(spec, 2)[2] == x + y
            assert hessenberg_det(matrix) == x * z + y
            assert QuadExtElem(x, one, z) * QuadExtElem(y, one, z) == QuadExtElem(x * y + z, x + y, z)
