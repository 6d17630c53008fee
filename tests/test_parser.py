import pytest
from hypothesis import given, settings

from conftest import multipolys
from recpoly import MultiPoly, ParseError, ast_to_poly, parse_expr, parse_poly
from recpoly.parse import MAX_NESTING, Lit, Mul, Neg, Pow, Sub, Var

XA = ("x", "a")
X_ = MultiPoly.var("x", XA)
A_ = MultiPoly.var("a", XA)


class TestAccepts:
    def test_basic_polynomial(self):
        assert parse_poly("x^2 - 2*a", XA) == X_**2 - 2 * A_

    def test_whitespace_insensitive(self):
        assert parse_poly("  x ^ 2-2 * a ", XA) == parse_poly("x^2-2*a", XA)

    def test_nested_parentheses(self):
        assert parse_poly("((x))", XA) == X_
        assert parse_poly("(x + 1) * (x - 1)", XA) == X_**2 - 1

    def test_unary_minus(self):
        assert parse_poly("-x", XA) == -X_
        assert parse_poly("--x", XA) == X_
        assert parse_poly("-(x + a)", XA) == -(X_ + A_)

    def test_unary_minus_binds_tighter_than_caret(self):
        # '-x^2' is (-x)^2 under this grammar since '-' is part of base.
        assert parse_poly("-x^2", XA) == X_**2
        assert parse_poly("-1*x^2", XA) == -(X_**2)

    def test_integer_literals(self):
        assert parse_poly("0", XA) == MultiPoly.zero(XA)
        assert parse_poly("41 + 1", XA) == 42
        assert parse_poly("2^10", XA) == 1024

    def test_ast_shape(self):
        ast = parse_expr("x^2 - -2*a", XA)
        assert ast == Sub(Pow(Var("x"), 2), Mul(Neg(Lit(2)), Var("a")))

    def test_multicharacter_variable_names(self):
        v = ("x1", "x2")
        assert parse_poly("x1*x2^3", v) == (
            MultiPoly.var("x1", v) * MultiPoly.var("x2", v) ** 3
        )


class TestRejectsWithColumn:
    def err(self, text, variables=XA):
        with pytest.raises(ParseError) as info:
            parse_poly(text, variables)
        return info.value

    def test_no_implicit_multiplication(self):
        e = self.err("x y")
        assert e.column == 3
        assert str(e).startswith("column 3:")

    def test_adjacent_number_and_variable(self):
        assert self.err("2x").column == 2

    def test_unknown_variable(self):
        e = self.err("x + b")
        assert e.column == 5
        assert "b" in str(e)

    def test_negative_exponent(self):
        assert self.err("x^-2").column == 3

    def test_non_literal_exponent(self):
        assert self.err("x^a").column == 3
        assert self.err("x^(2)").column == 3

    def test_unbalanced_parentheses(self):
        assert self.err("(x + 1").column == 7
        assert self.err("x + 1)").column == 6

    def test_dangling_operator(self):
        assert self.err("x +").column == 4
        assert self.err("* x").column == 1

    def test_empty_input(self):
        assert self.err("").column == 1

    def test_integer_literal_past_the_conversion_limit(self):
        e = self.err("x^" + "9" * 5000)
        assert e.column == 3 and "5000 digits" in str(e)
        assert self.err("x + " + "7" * 5000).column == 5

    def test_illegal_character(self):
        assert self.err("x / 2").column == 3
        assert self.err("  @").column == 3


class TestNesting:
    @staticmethod
    def err_for(text):
        with pytest.raises(ParseError) as info:
            parse_poly(text, XA)
        return info.value

    def test_deep_input_is_a_parse_error(self):
        e = self.err_for("(" * 3000 + "x" + ")" * 3000)
        assert e.column == MAX_NESTING + 1
        assert "nested" in str(e)
        assert self.err_for("-" * 3000 + "x").column == MAX_NESTING + 1

    def test_limit_itself_is_accepted(self):
        deep = MAX_NESTING
        assert parse_poly("(" * deep + "x" + ")" * deep, XA) == X_
        assert parse_poly("-" * deep + "x", XA) == X_
        assert parse_poly("x*(" * deep + "x" + ")" * deep, XA) == X_ ** (deep + 1)
        assert parse_poly("a+x*(" * deep + "1" + ")" * deep, XA).term_count() == deep + 1
        assert parse_poly("(" * deep + "x" + ")^1" * deep, XA) == X_
        assert parse_poly("-(" * (deep // 2) + "x" + ")" * (deep // 2), XA) == X_

    def test_deep_ast_is_a_parse_error(self):
        node = Var("x")
        for _ in range(3000):
            node = Neg(node)
        with pytest.raises(ParseError):
            ast_to_poly(node, XA)

    def test_long_flat_sums_do_not_nest(self):
        poly = MultiPoly(XA, {(e, 0): 1 for e in range(3000)})
        assert parse_poly(poly.canonical(), XA) == poly


class TestRoundtrip:
    def test_canonical_strings_reparse(self):
        samples = [
            X_**2 - 2 * A_,
            -X_,
            -(X_**3) + 5,
            MultiPoly.const(XA, -7),
            MultiPoly.zero(XA),
            3 * X_**2 * A_ - A_**2 + 1,
        ]
        for poly in samples:
            assert parse_poly(poly.canonical(), XA) == poly

    @settings(max_examples=120)
    @given(multipolys())
    def test_roundtrip_property(self, poly):
        assert parse_poly(poly.canonical(), poly.variables) == poly
