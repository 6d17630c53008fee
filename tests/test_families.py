import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recpoly import (
    IDENTITY_IDS,
    TYPO_IDS,
    MultiPoly,
    Order2Family,
    RecurrenceSpec,
    StructuralError,
    bareiss_det,
    check_identity,
    classical_family,
    dickson_D,
    dickson_E,
    dickson_family,
    generic_family,
    iterate_terms,
    parse_poly,
)
import recpoly
from conftest import VARS, multipolys
from recpoly import QuadExtElem, families
from recpoly.closedform import hessenberg_det, hessenberg_minors
from recpoly.families import lucas_weight

XA = ("x", "a")
X_ = MultiPoly.var("x", XA)
A_ = MultiPoly.var("a", XA)


class TestClassicalFamily:
    def test_fibonacci_numbers_at_one(self):
        fam = classical_family()
        values = [p.eval_int({"x": 1}) for p in fam.fib_list(10)]
        assert values == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_lucas_numbers_at_one(self):
        fam = classical_family()
        values = [p.eval_int({"x": 1}) for p in fam.lucas_list(10)]
        assert values == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]

    def test_lucas_polynomial_l4(self):
        x = MultiPoly.var("x", ("x",))
        assert classical_family().lucas(4) == x**4 + 4 * x**2 + 2

    def test_explicit_sums(self):
        fam = classical_family()
        for n in range(11):
            assert fam.fib_explicit(n) == fam.fib(n)
            if n >= 1:
                assert fam.lucas_explicit(n) == fam.lucas(n)

    def test_lucas_explicit_needs_positive_index(self):
        with pytest.raises(StructuralError):
            classical_family().lucas_explicit(0)

    def test_fib_explicit_needs_nonnegative_index(self):
        with pytest.raises(StructuralError):
            classical_family().fib_explicit(-1)


class TestExplicitSums:
    @pytest.mark.parametrize("q1, q2", [("x + 2*y - 1", "x*y + 3*z^2 - 2"),
                                        ("0", "x - y + 2"),
                                        ("3*x + y^2", "0")])
    def test_explicit_sums_follow_the_recurrence(self, q1, q2):
        fam = Order2Family(parse_poly(q1, VARS), parse_poly(q2, VARS))
        fib, lucas = fam.fib_list(12), fam.lucas_list(12)
        for n in range(13):
            assert fam.fib_explicit(n) == fib[n]
            if n >= 1:
                assert fam.lucas_explicit(n) == lucas[n]

    @pytest.mark.parametrize("identity_id, bound", [
        ("thm-4.17", 400), ("thm-4.19", 400), ("thm-5.5", 720)])
    def test_a_check_builds_one_power_table_per_sum(self, ring_products, identity_id, bound):
        # At n_max = 30, building q1^0..q1^top and q2^0..q2^(top/2) again for
        # every sum costs 690 products per sum; one table costs 45.
        report = check_identity(identity_id)
        assert report.passed
        assert ring_products[0] <= bound

    def test_the_dickson_sums_share_one_power_table(self, ring_products):
        # D_n's and E_n's sums read the same powers of x and -a at each top:
        # one table costs 672 products at n_max = 30, two tables 717.
        assert check_identity("thm-5.5").passed
        assert ring_products[0] <= 675

    @pytest.mark.parametrize("identity_id, witness", [
        ("thm-4.17", {"n": 3}), ("thm-4.19", {"n": 3}), ("thm-5.5", {"n": 3, "kind": "D"})])
    def test_a_wrong_sum_in_the_range_is_the_witness(self, monkeypatch, identity_id, witness):
        original = Order2Family._explicit

        def wrong_at_3(self, tops):
            for top, at in zip(tops, original(self, tops)):
                yield (lambda weight, at=at: at(weight) + 1) if top == 3 else at

        monkeypatch.setattr(Order2Family, "_explicit", wrong_at_3)
        assert check_identity(identity_id).witness[0] == witness


class TestLucasWeight:
    def test_integrality_over_full_range(self):
        for n in range(1, 201):
            for i in range(n // 2 + 1):
                w = lucas_weight(n, i)
                assert w >= 1

    def test_known_values(self):
        assert lucas_weight(4, 0) == 1
        assert lucas_weight(4, 1) == 4
        assert lucas_weight(4, 2) == 2  # matches L_4 = x^4 + 4 x^2 + 2 at q2 = 1

    def test_vanishes_beyond_half_range(self):
        assert lucas_weight(5, 4) == 0


class TestFamilyValidation:
    def test_variable_mismatch(self):
        with pytest.raises(StructuralError):
            Order2Family(MultiPoly.var("x", ("x",)), MultiPoly.var("y", ("y",)))

    def test_generic_delta(self):
        fam = generic_family()
        q1 = MultiPoly.var("q1", ("q1", "q2"))
        q2 = MultiPoly.var("q2", ("q1", "q2"))
        assert fam.delta() == q1**2 + 4 * q2


class TestDicksonPolynomials:
    def test_first_kind_table(self):
        assert dickson_D(0) == 2
        assert dickson_D(1) == X_
        assert dickson_D(2) == X_**2 - 2 * A_
        assert dickson_D(3) == X_**3 - 3 * X_ * A_
        assert dickson_D(4) == X_**4 - 4 * X_**2 * A_ + 2 * A_**2
        assert dickson_D(5) == X_**5 - 5 * X_**3 * A_ + 5 * X_ * A_**2

    def test_second_kind_table(self):
        assert dickson_E(0) == 1
        assert dickson_E(1) == X_
        assert dickson_E(2) == X_**2 - A_
        assert dickson_E(3) == X_**3 - 2 * X_ * A_
        assert dickson_E(4) == X_**4 - 3 * X_**2 * A_ + A_**2
        assert dickson_E(5) == X_**5 - 4 * X_**3 * A_ + 3 * X_ * A_**2

    def test_canonical_strings(self):
        assert dickson_D(2).canonical() == "x^2 - 2*a"
        assert dickson_E(5).canonical() == "x^5 - 4*x^3*a + 3*x*a^2"

    def test_specialize_to_chebyshev_like_values(self):
        # At a = 1, D_n(2 cos t) = 2 cos(n t); check x = 2 (t = 0): D_n = 2.
        for n in range(8):
            assert dickson_D(n).eval_int({"x": 2, "a": 1}) == 2
            assert dickson_E(n).eval_int({"x": 2, "a": 1}) == n + 1

    def test_self_check_raises_when_the_explicit_sum_disagrees(self, monkeypatch):
        # The self-check must survive `python -O`, so it cannot be an assert.
        wrong = lambda self, n: MultiPoly.zero(self.variables)
        monkeypatch.setattr(Order2Family, "lucas_explicit", wrong)
        with pytest.raises(StructuralError):
            dickson_D(3)
        monkeypatch.setattr(Order2Family, "fib_explicit", wrong)
        with pytest.raises(StructuralError):
            dickson_E(3)


class TestTridiagonalDeterminants:
    def test_dickson_E_det_small(self):
        assert families._dickson_E_minors(3)[1:] == [X_, X_**2 - A_, X_**3 - 2 * X_ * A_]

    def test_generic_symbolic_recursion(self):
        v = ("b", "a", "c")
        b = MultiPoly.var("b", v)
        a = MultiPoly.var("a", v)
        c = MultiPoly.var("c", v)
        zero = MultiPoly.zero(v)
        assert hessenberg_det([[b]]) == b
        assert hessenberg_det([[b, c], [a, b]]) == b**2 - c * a
        assert hessenberg_det([[b, c, zero], [a, b, c], [zero, a, b]]) == b**3 - 2 * b * c * a

    def test_constant_band_minors_follow_the_three_term_recurrence(self):
        # Diagonal b, subdiagonal a, superdiagonal c as free variables: the
        # leading minors satisfy d_n = b d_{n-1} - a c d_{n-2} from (1, b) for
        # every band value at once.  The radical closed form of d_n is the
        # Binet form that thm-4.21-12 checks numerically.
        v = ("b", "a", "c")
        b, a, c = (MultiPoly.var(name, v) for name in v)
        spec = RecurrenceSpec.make(v, [b, -a * c], [MultiPoly.const(v, 1), b])
        assert hessenberg_minors(families._tridiag(b, a, c, 14)) == iterate_terms(spec, 14)

    def test_det_equals_E_up_to_ten(self):
        assert families._dickson_E_minors(10)[1:] == [dickson_E(n) for n in range(1, 11)]

    def test_sign_flip_invariance(self):
        # Every term of d_n takes the off-diagonal entries in sub/sup pairs,
        # so negating both bands leaves each minor unchanged.
        v = ("b", "a", "c")
        b, a, c = (MultiPoly.var(name, v) for name in v)
        assert (hessenberg_minors(families._tridiag(b, a, c, 9))
                == hessenberg_minors(families._tridiag(b, -a, -c, 9)))
        assert families._dickson_E_minors(8) == families._dickson_E_minors(8, -1)

    def test_closed_form_degenerate_branch(self):
        # b^2 = 4ac: d_n = (n + 1)(b/2)^n, here with b = 2t and a = c = t.
        t = MultiPoly.var("t", ("t",))
        minors = hessenberg_minors(families._tridiag(2 * t, t, t, 9))
        assert minors == [(n + 1) * t**n for n in range(10)]

    def test_zero_diagonal_minors(self):
        # b = 0: d_n = 0 for odd n and (-ac)^(n/2) for even n.
        v = ("a", "c")
        a, c = (MultiPoly.var(name, v) for name in v)
        minors = hessenberg_minors(families._tridiag(a * 0, a, c, 9))
        assert minors == [(-a * c) ** (n // 2) if n % 2 == 0 else a * 0 for n in range(10)]

    @settings(max_examples=100)
    @given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
    def test_minors_are_complete_homogeneous_in_the_roots(self, r1, r2):
        # With b = r1 + r2 and a c = r1 r2 the recurrence's roots are r1, r2,
        # and d_n = sum_i r1^i r2^(n - i); r1 = r2 is the degenerate branch.
        v = ("x",)
        one = MultiPoly.const(v, 1)
        minors = hessenberg_minors(families._tridiag((r1 + r2) * one, r1 * r2 * one, one, 8))
        assert minors == [sum(r1**i * r2 ** (n - i) for i in range(n + 1)) * one
                          for n in range(9)]

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                                    min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_minors_agree_with_dense_bareiss(self, rows):
        # Zero below the subdiagonal makes the matrix upper Hessenberg; every
        # leading minor must match elimination over the dense leading block.
        n, v = len(rows), ("x",)
        rows = [[e if j >= i - 1 else 0 for j, e in enumerate(row)] for i, row in enumerate(rows)]
        minors = hessenberg_minors([[MultiPoly.const(v, e) for e in row] for row in rows])
        assert minors == [MultiPoly.const(v, bareiss_det([row[:m] for row in rows[:m]]))
                          for m in range(n + 1)]


X_Y = ("x", "y")
U_ = MultiPoly.var("x", X_Y) + 2 * MultiPoly.var("y", X_Y)


class TestPowerChains:
    small = multipolys(X_Y, max_terms=3, max_exp=2, coeff_bound=20)

    @settings(max_examples=60, deadline=None)
    @given(small, small, small, st.sampled_from([1, -1]))
    @example(U_, MultiPoly.zero(X_Y), U_ * U_ + 1, 1)  # v = 0
    @example(U_, U_ - 1, U_ * U_ + 3, -1)  # N = u^2 - delta v^2 is not a monomial
    def test_chains_are_the_extension_powers(self, u, v, delta, sign):
        us, vs = families._power_chains(u, sign * v, delta)
        z = QuadExtElem(u, sign * v, delta)
        assert [QuadExtElem(u_m, v_m, delta) for _, u_m, v_m in zip(range(9), us, vs)] == \
            [z**m for m in range(9)]

    def test_power_ids_form_no_extension_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an extension product was formed")

        for method in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(QuadExtElem, method, refuse)
        for identity_id in ("thm-4.21-3", "thm-4.21-4", "thm-4.21-5",
                            "thm-5.6-1", "thm-5.6-2", "thm-5.6-3"):
            report = check_identity(identity_id, n_max=10, m_max=5)
            assert report.passed, report.witness


class TestIdentityCatalog:
    def test_catalog_ids_are_stable(self):
        expected = {
            "lem-4.4", "thm-4.5", "thm-4.7", "thm-4.9", "thm-4.11", "thm-4.13",
            "thm-4.15", "thm-4.17", "thm-4.19", "thm-4.21-12", "thm-4.21-3",
            "thm-4.21-4", "thm-4.21-5", "thm-5.1", "thm-5.2", "thm-5.5",
            "thm-5.6-1", "thm-5.6-2", "thm-5.6-3", "thm-5.7-a", "thm-5.7-b",
            "thm-5.7-c", "thm-5.7-d1", "thm-5.7-d2", "thm-5.7-e", "thm-2.6-sign",
        }
        assert set(IDENTITY_IDS) == expected
        assert set(TYPO_IDS) == {"thm-5.7-d2-as-printed", "thm-2.6-sign-as-printed"}

    @pytest.mark.parametrize("identity_id", sorted(IDENTITY_IDS))
    def test_each_identity_passes_on_a_small_range(self, identity_id):
        report = check_identity(identity_id, n_max=8, p_max=4, m_max=3)
        assert report.passed, report.witness

    @pytest.mark.parametrize("identity_id", sorted(TYPO_IDS))
    def test_published_variants_fail_with_witness(self, identity_id):
        report = check_identity(identity_id, n_max=8, p_max=4, m_max=3)
        assert not report.passed
        params, lhs, rhs = report.witness
        assert lhs != rhs

    def test_printed_d2_first_witness(self):
        report = check_identity("thm-5.7-d2-as-printed", n_max=10)
        assert report.witness[0] == {"n": 2}

    def test_a_failing_check_builds_nothing_past_its_witness(self, ring_products):
        # The witness n = 2 reads D_4 and E_3; building every sequence to its
        # top at n_max = 30 first cost 183 products.
        assert check_identity("thm-5.7-d2-as-printed").witness[0] == {"n": 2}
        assert ring_products[0] <= 20

    @pytest.mark.parametrize("identity_id, bound", [("thm-4.7", 181), ("thm-5.7-b", 177)])
    def test_delta_is_formed_once_per_check(self, ring_products, identity_id, bound):
        # Forming q1^2 + 4 q2 again for every n cost one product per n: 211
        # and 206 products at n_max = 30.
        assert check_identity(identity_id).passed
        assert ring_products[0] <= bound

    def test_a_negative_index_raises(self, monkeypatch):
        # thm-5.7-a started at n = 1 reads E_{-1}: an error, not E's last term.
        monkeypatch.setitem(families._CATALOG, "thm-5.7-a", families._each_n(
            1, lambda s, n: (s.L[n], s.q1 * s.E[n - 1] + 2 * s.q2 * s.E[n - 2])))
        with pytest.raises(IndexError):
            check_identity("thm-5.7-a", n_max=3)
        store = families._Store(dickson_family(), 0)
        for seq in (store.F, store.L, store.E):
            with pytest.raises(IndexError):
                seq[-1]

    @pytest.mark.parametrize("identity_id", [
        i for i in IDENTITY_IDS + TYPO_IDS if i.startswith("thm-5.")])
    def test_dickson_ids_ignore_the_family(self, identity_id):
        ranges = {"n_max": 8, "p_max": 4, "m_max": 3}
        given = check_identity(identity_id, family=classical_family(), **ranges)
        default = check_identity(identity_id, **ranges)
        assert (given.status, given.witness) == (default.status, default.witness)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            check_identity("thm-9.9")

    @pytest.mark.parametrize("param", ["n_max", "p_max", "m_max"])
    @pytest.mark.parametrize("identity_id", IDENTITY_IDS + TYPO_IDS)
    def test_negative_range_is_refused_before_the_check(self, monkeypatch, identity_id, param):
        def refuse(*args):
            raise AssertionError("the checker ran")

        monkeypatch.setitem(families._CATALOG, identity_id, refuse)
        with pytest.raises(StructuralError, match=f"^{param} must be >= 0, got -1$"):
            check_identity(identity_id, **{param: -1})

    def test_checks_run_on_a_specialized_family(self):
        report = check_identity("thm-4.5", family=classical_family(), n_max=10)
        assert report.passed

    def test_dickson_family_is_the_generic_specialization(self):
        fam = dickson_family()
        assert fam.variables == ("x", "a")
        assert fam.delta() == X_**2 - 4 * A_

    @pytest.mark.parametrize("ranges", [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 2, 1), (2, 1, 0)])
    @pytest.mark.parametrize("identity_id", IDENTITY_IDS)
    def test_each_identity_passes_at_the_smallest_ranges(self, identity_id, ranges):
        n_max, p_max, m_max = ranges
        report = check_identity(identity_id, n_max=n_max, p_max=p_max, m_max=m_max)
        assert report.passed, report.witness

    @pytest.mark.parametrize("identity_id", IDENTITY_IDS)
    def test_each_sequence_is_built_once_up_to_the_last_index_read(self, identity_id,
                                                                   monkeypatch):
        # Every sequence the store makes is recorded with the highest index
        # read from it: one sequence per recurrence, holding no term past it,
        # each over the variables of the one family the check reads.
        made, top = [], {}
        init, getitem = families._Seq.__init__, families._Seq.__getitem__

        def recording_init(seq, spec):
            made.append((spec, seq))
            init(seq, spec)

        def recording_getitem(seq, n):
            top[seq] = max(top.get(seq, -1), n)
            return getitem(seq, n)

        monkeypatch.setattr(families._Seq, "__init__", recording_init)
        monkeypatch.setattr(families._Seq, "__getitem__", recording_getitem)
        assert check_identity(identity_id, n_max=7, p_max=3, m_max=3).passed
        assert top or identity_id == "thm-2.6-sign"  # the one id that reads no stored sequence
        specs = [spec for spec, _ in made]
        assert all(a != b for i, a in enumerate(specs) for b in specs[i + 1:])
        family = ("x", "a") if identity_id.startswith("thm-5.") else ("q1", "q2")
        assert specs and all(spec.variables == family for spec in specs)
        assert [len(seq.terms) - 1 for _, seq in made] == [top.get(seq, -1) for _, seq in made]


class TestPublicApi:
    def test_exports_are_pinned_and_resolve(self):
        assert recpoly.__all__ == [
            "BudgetExceededError", "IDENTITY_IDS", "IdentityReport", "MultiPoly",
            "Order2Family", "ParseError", "QuadExtElem", "RecurrenceSpec", "RootFindingError",
            "RootProfile", "SpecFormatError", "StructuralError", "TYPO_IDS",
            "VariableMismatchError", "ast_to_poly", "bareiss_det", "binet_distinct",
            "binet_multiple", "binet_single", "char_roots", "check_identity",
            "classical_family", "companion_power_term", "compositions", "dickson_D",
            "dickson_E", "dickson_family", "family_spec", "generalized_lucas",
            "generalized_lucas_closed_form", "generalized_lucas_spec", "generic_family",
            "hessenberg_det_numeric_oracle", "hessenberg_det_symbolic", "iterate_terms",
            "load_spec", "multinomial_term", "parse_expr", "parse_poly", "spec_from_mapping",
            "term_budget", "weighted_compositions",
        ]
        for name in recpoly.__all__:
            assert getattr(recpoly, name) is not None, name
