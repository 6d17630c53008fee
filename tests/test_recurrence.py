import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recpoly import (
    BudgetExceededError,
    MultiPoly,
    RecurrenceSpec,
    StructuralError,
    companion_power_term,
    iterate_terms,
    term_budget,
)
from conftest import VARS, multipolys
from recpoly import engines, recurrence
from recpoly.closedform import generalized_lucas_spec
from recpoly.engines import ENGINES, compute_term, table_terms
from recpoly.specfile import family_spec
from support import random_delta_spec, random_general_spec, random_poly


@st.composite
def general_specs(draw):
    """Order 1-4 over 0-2 variables, general initials, sometimes c_k = 0."""
    k = draw(st.integers(min_value=1, max_value=4))
    variables = VARS[: draw(st.integers(min_value=0, max_value=2))]
    small = multipolys(variables, max_terms=2, max_exp=1, coeff_bound=3)
    coeffs = draw(st.lists(small, min_size=k, max_size=k))
    if draw(st.booleans()):
        coeffs[-1] = MultiPoly.zero(variables)
    initial = draw(st.lists(small, min_size=k, max_size=k))
    return RecurrenceSpec.make(variables, coeffs, initial)


@st.composite
def growing_specs(draw):
    """Order 1-3 over 0-2 variables with nonzero coefficients and initials."""
    k = draw(st.integers(min_value=1, max_value=3))
    variables = VARS[: draw(st.integers(min_value=0, max_value=2))]
    small = multipolys(variables, max_terms=2, max_exp=1, coeff_bound=3).filter(
        lambda p: not p.is_zero())
    coeffs = draw(st.lists(small, min_size=k, max_size=k))
    initial = draw(st.lists(small, min_size=k, max_size=k))
    return RecurrenceSpec.make(variables, coeffs, initial)


def fib_spec() -> RecurrenceSpec:
    variables = ("x",)
    x = MultiPoly.var("x", variables)
    return RecurrenceSpec.make(variables, [x, MultiPoly.const(variables, 1)],
                               [MultiPoly.zero(variables), MultiPoly.const(variables, 1)])


def lucas_spec() -> RecurrenceSpec:
    variables = ("x",)
    x = MultiPoly.var("x", variables)
    return RecurrenceSpec.make(variables, [x, MultiPoly.const(variables, 1)],
                               [MultiPoly.const(variables, 2), x])


class TestSpecValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(StructuralError):
            RecurrenceSpec((), 0, (), ())

    def test_length_mismatch_rejected(self):
        v = ("x",)
        one = MultiPoly.const(v, 1)
        with pytest.raises(StructuralError):
            RecurrenceSpec(v, 2, (one,), (one, one))
        with pytest.raises(StructuralError):
            RecurrenceSpec(v, 1, (one,), (one, one))

    def test_variable_mismatch_rejected(self):
        one_x = MultiPoly.const(("x",), 1)
        one_y = MultiPoly.const(("y",), 1)
        with pytest.raises(StructuralError):
            RecurrenceSpec.make(("x",), [one_x], [one_y])


class TestIteration:
    def test_fibonacci_polynomials(self):
        terms = iterate_terms(fib_spec(), 5)
        x = MultiPoly.var("x", ("x",))
        assert terms[0].is_zero()
        assert terms[1] == 1
        assert terms[2] == x
        assert terms[3] == x**2 + 1
        assert terms[4] == x**3 + 2 * x
        assert terms[5] == x**4 + 3 * x**2 + 1

    def test_lucas_polynomials(self):
        terms = iterate_terms(lucas_spec(), 4)
        x = MultiPoly.var("x", ("x",))
        assert terms[2] == x**2 + 2
        assert terms[3] == x**3 + 3 * x
        assert terms[4] == x**4 + 4 * x**2 + 2

    def test_order_three_integer_example(self):
        # P_{n+3} = P_{n+2} + P_{n+1} + P_n starting (0, 0, 1): tribonacci shift.
        v = ()
        one = MultiPoly.const(v, 1)
        zero = MultiPoly.zero(v)
        spec = RecurrenceSpec.make(v, [one, one, one], [zero, zero, one])
        values = [t.eval_int({}) for t in iterate_terms(spec, 8)]
        assert values == [0, 0, 1, 1, 2, 4, 7, 13, 24]

    def test_negative_n_rejected(self):
        with pytest.raises(StructuralError):
            iterate_terms(fib_spec(), -1)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            with term_budget(3):
                iterate_terms(fib_spec(), 12)
        # A loose budget must not interfere.
        with term_budget(1000):
            assert len(iterate_terms(fib_spec(), 12)) == 13

    def test_iterate_engine_keeps_only_its_window(self):
        # Holding every term up to n, the iterate engine peaked at 16 times
        # the companion engine's traced memory here; the last k terms and
        # the step being built stay below twice it.
        spec = family_spec("fibonacci2")
        peaks = {}
        for engine in ("iterate", "companion"):
            tracemalloc.start()
            try:
                compute_term(spec, 200, engine)
                peaks[engine] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["iterate"] < 2 * peaks["companion"], peaks

    @settings(max_examples=100, deadline=None)
    @given(spec=growing_specs(), n=st.integers(min_value=0, max_value=30),
           engine=st.sampled_from(sorted(ENGINES)), budget=st.integers(min_value=1, max_value=20))
    def test_every_engine_obeys_the_budget(self, spec, n, engine, budget):
        # Under a budget an engine either stops or returns the unbudgeted
        # value.  The spec is built outside the budget (the CLI charges it
        # while parsing), so only specs that fit it are drawn.
        assume(all(p.term_count() <= budget for p in (*spec.coeffs, *spec.initial)))
        want = iterate_terms(spec, n)[n]
        try:
            with term_budget(budget):
                got = compute_term(spec, n, engine)
        except BudgetExceededError:
            return
        assert got == want and got.term_count() <= budget


def delta_basis(spec: RecurrenceSpec, n_max: int) -> list[list[MultiPoly]]:
    """P^(j)_0..P^(j)_n_max for j < k: spec's recurrence from the window with
    1 at position j and 0 elsewhere."""
    one, zero = MultiPoly.const(spec.variables, 1), MultiPoly.zero(spec.variables)
    return [iterate_terms(spec.with_initial([one if i == j else zero for i in range(spec.order)]),
                          n_max) for j in range(spec.order)]


class TestBasisAndDecomposition:
    """Lemma 4.4 for any order k: P_n = sum_i P_i P^(i)_n."""

    @staticmethod
    def combined(spec: RecurrenceSpec, basis: list[list[MultiPoly]]) -> list[MultiPoly]:
        return [sum((p * seq[n] for p, seq in zip(spec.initial, basis)),
                    MultiPoly.zero(spec.variables)) for n in range(len(basis[0]))]

    def test_basis_hits_delta_initials(self):
        spec = lucas_spec()
        for j, seq in enumerate(delta_basis(spec, 3)):
            for i in range(spec.order):
                assert seq[i] == (1 if i == j else 0)

    def test_decompose_lucas_over_basis(self):
        spec = lucas_spec()
        assert self.combined(spec, delta_basis(spec, 12)) == iterate_terms(spec, 12)

    def test_decompose_random_specs(self):
        rng = random.Random(7)
        for _ in range(10):
            spec = random_general_spec(rng, max_order=3)
            assert self.combined(spec, delta_basis(spec, 8)) == iterate_terms(spec, 8)

    def test_decompose_negative_control(self):
        # Corrupt one basis entry: the sums must differ there and only there.
        spec = lucas_spec()
        basis = delta_basis(spec, 6)
        basis[1][4] = basis[1][4] + 1
        terms = iterate_terms(spec, 6)
        assert [n for n, rhs in enumerate(self.combined(spec, basis)) if rhs != terms[n]] == [4]


class TestCompanionEngine:
    def test_matches_iteration_on_lucas(self):
        terms = iterate_terms(lucas_spec(), 20)
        for n in (0, 1, 2, 7, 13, 20):
            assert companion_power_term(lucas_spec(), n) == terms[n]

    def test_matches_iteration_on_random_specs(self):
        rng = random.Random(11)
        for _ in range(8):
            spec = random_general_spec(rng, max_order=4)
            terms = iterate_terms(spec, 10)
            for n in (0, spec.order, 9, 10):
                assert companion_power_term(spec, n) == terms[n]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=40))
    def test_matches_iteration_property(self, seed, n):
        spec = random_delta_spec(random.Random(seed), max_order=3)
        # Keep symbolic growth in check for the property run.
        point = {v: 2 for v in spec.variables}
        expected = iterate_terms(spec, n)[n].eval_int(point)
        assert companion_power_term(spec, n).eval_int(point) == expected

    @settings(max_examples=60, deadline=None)
    @given(general_specs(), st.integers(min_value=0, max_value=80))
    def test_matches_iteration_on_general_specs(self, spec, n):
        assert companion_power_term(spec, n) == iterate_terms(spec, n)[n]

    @pytest.mark.parametrize("spec, n", [
        (generalized_lucas_spec(3), 60),
        (family_spec("dickson-d"), 200),
    ])
    def test_products_per_bit_are_quadratic_in_the_order(self, ring_products, spec, n):
        k = spec.order
        value = companion_power_term(spec, n)
        assert ring_products[0] <= (k * k + 2 * k) * n.bit_length() + k
        assert value == iterate_terms(spec, n)[n]

    def test_shift_property(self):
        # Appending one recurrence step equals advancing the index by one.
        spec = lucas_spec()
        terms = iterate_terms(spec, 11)
        for n in range(10):
            stepped = sum(
                (c * terms[n + spec.order - i] for i, c in enumerate(spec.coeffs, start=1)),
                MultiPoly.zero(spec.variables),
            )
            assert stepped == terms[n + spec.order]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_iteration_at_every_small_n_and_random_n(self, k):
        # Every n up to 2k + 3 covers n < k, h < k and both parities of the
        # bilinear finish; general windows make every read L(T) a full sum.
        rng = random.Random(100 + k)
        for _ in range(4):
            variables = ("x", "y")[: rng.randint(0, 2)]
            spec = RecurrenceSpec.make(variables,
                                       [random_poly(rng, variables) for _ in range(k)],
                                       [random_poly(rng, variables) for _ in range(k)])
            terms = iterate_terms(spec, 80)
            for n in [*range(2 * k + 4), *rng.sample(range(2 * k + 4, 81), 6)]:
                assert companion_power_term(spec, n) == terms[n], (spec, n)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            with term_budget(5):
                companion_power_term(fib_spec(), 40)

    def test_negative_n_rejected(self):
        with pytest.raises(StructuralError):
            companion_power_term(fib_spec(), -2)


class TestCompanionTable:
    @settings(max_examples=60, deadline=None)
    @given(spec=general_specs(), n_max=st.integers(min_value=0, max_value=40),
           budget=st.one_of(st.none(), st.integers(min_value=1, max_value=30)))
    def test_rows_match_iteration(self, spec, n_max, budget):
        # Under a budget the table either stops or yields the unbudgeted rows.
        want = iterate_terms(spec, n_max)
        try:
            with term_budget(budget):
                got = list(table_terms(spec, n_max, "companion"))
        except BudgetExceededError:
            assert budget is not None
            return
        assert got == want

    def test_term_and_table_do_not_iterate(self, monkeypatch):
        spec = generalized_lucas_spec(3)
        want = iterate_terms(spec, 30)

        def refuse(*args):
            raise AssertionError("the companion engine iterated the recurrence")

        for module, name in ((recurrence, "iter_terms"), (recurrence, "iterate_terms"),
                             (engines, "iter_terms")):
            monkeypatch.setattr(module, name, refuse)
        assert compute_term(spec, 30, "companion") == want[30]
        assert list(table_terms(spec, 30, "companion")) == want

    @pytest.mark.parametrize("spec, n_max", [
        (generalized_lucas_spec(4), 40),
        (family_spec("dickson-d"), 60),
        (family_spec("fibonacci2"), 60),
    ])
    def test_each_row_costs_at_most_2k_products(self, ring_products, spec, n_max):
        rows = list(table_terms(spec, n_max, "companion"))
        assert ring_products[0] <= 2 * spec.order * (n_max + 1)
        assert rows == iterate_terms(spec, n_max)
