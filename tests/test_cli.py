import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recpoly import (
    IDENTITY_IDS,
    TYPO_IDS,
    MultiPoly,
    Order2Family,
    RecurrenceSpec,
    SpecFormatError,
    dickson_family,
    family_spec,
    load_spec,
    spec_from_mapping,
)
from conftest import VARS, multipolys
from recpoly import cli, engines, families
from recpoly.cli import entry, main
from recpoly.closedform import generalized_lucas_spec
from recpoly.engines import ENGINES, compute_term
from recpoly.parse import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CUSTOM_DOC = {
    "variables": ["x", "y"],
    "order": 2,
    "coefficients": ["x", "y"],
    "initial": ["0", "1"],
}

# Integer Fibonacci numbers: F_n has more than 4300 digits from n = 20,580 on.
FIB_INT_DOC = {"variables": ["x"], "order": 2, "coefficients": ["1", "1"], "initial": ["0", "1"]}


class TestSpecDocuments:
    def test_load_custom_spec(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, CUSTOM_DOC))
        assert spec.order == 2
        assert spec.variables == ("x", "y")
        assert spec.initial == (0, 1)

    def test_family_presets(self):
        fib = family_spec("fibonacci2")
        assert fib.initial[0].is_zero() and fib.initial[1] == 1
        lucas = family_spec("lucas2")
        assert lucas.initial[0] == 2 and lucas.initial[1] == lucas.coeffs[0]
        d = family_spec("dickson-d")
        assert d.variables == ("x", "a") and d.initial[0] == 2
        e = family_spec("dickson-e")
        assert e.initial[0] == 1
        gl = family_spec("generalized-lucas", 3)
        assert gl.order == 3 and gl.variables == ("x1", "x2", "x3")

    def test_family_presets_are_the_family_constructors(self):
        xy = ("x", "y")
        order2 = Order2Family(MultiPoly.var("x", xy), MultiPoly.var("y", xy))
        assert family_spec("fibonacci2") == order2.fib_spec()
        assert family_spec("lucas2") == order2.lucas_spec()
        dickson = dickson_family()
        assert family_spec("dickson-d") == dickson.lucas_spec()
        assert family_spec("dickson-e") == dickson._spec(1, dickson.q1)

    def test_generalized_lucas_needs_order(self):
        with pytest.raises(SpecFormatError):
            family_spec("generalized-lucas")
        with pytest.raises(SpecFormatError):
            family_spec("generalized-lucas", 1)

    def test_preset_rejects_overrides(self):
        with pytest.raises(SpecFormatError) as info:
            spec_from_mapping({"family": "fibonacci2", "initial": ["1", "1"]})
        assert "initial" in str(info.value)

    def test_error_messages_name_the_field(self):
        cases = [
            ({}, "variables"),
            ({"variables": ["x", "x"], "order": 1,
              "coefficients": ["x"], "initial": ["1"]}, "variables"),
            ({"variables": ["x"], "order": 0,
              "coefficients": [], "initial": []}, "order"),
            ({"variables": ["x"], "order": 2,
              "coefficients": ["x"], "initial": ["0", "1"]}, "coefficients"),
            ({"variables": ["x"], "order": 1,
              "coefficients": ["x y"], "initial": ["1"]}, "coefficients[0]"),
            ({"family": "nope"}, "family"),
        ]
        for doc, field in cases:
            with pytest.raises(SpecFormatError) as info:
                spec_from_mapping(doc)
            assert field in str(info.value), doc

    @pytest.mark.parametrize("doc", [
        {**CUSTOM_DOC, "order": True},
        {"family": "fibonacci2", "order": True},
        {"family": "generalized-lucas", "order": True},
    ])
    def test_boolean_order_is_rejected(self, capsys, tmp_path, doc):
        # JSON true loads as a bool, which Python counts as the integer 1.
        code, out, err = run(capsys, "term", "--spec", write_spec(tmp_path, doc), "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: order: expected an integer") and err.count("\n") == 1

    def test_preset_order_rule_is_shared_by_files_and_flags(self, capsys, tmp_path):
        message = "error: order: family 'fibonacci2' has order 2, got 3\n"
        path = write_spec(tmp_path, {"family": "fibonacci2", "order": 3})
        assert run(capsys, "term", "--spec", path, "--n", "2") == (2, "", message)
        assert run(capsys, "term", "--family", "fibonacci2", "--order", "3",
                   "--n", "2") == (2, "", message)
        code, out, _ = run(capsys, "term", "--family", "fibonacci2", "--order", "2", "--n", "2")
        assert (code, out) == (0, "x\n")

    @pytest.mark.parametrize("name", ["1x", "", "x y", "x-1", "é"])
    def test_variable_names_follow_the_parser(self, capsys, tmp_path, name):
        doc = {"variables": [name], "order": 1, "coefficients": ["1"], "initial": ["1"]}
        with pytest.raises(SpecFormatError, match="^variables: "):
            spec_from_mapping(doc)
        code, out, err = run(capsys, "term", "--spec", write_spec(tmp_path, doc), "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: variables: ") and err.count("\n") == 1

    def test_accepted_variable_names_reparse(self):
        doc = {"variables": ["x_1", "_y", "Z9"], "order": 1,
               "coefficients": ["x_1*Z9"], "initial": ["_y"]}
        spec = spec_from_mapping(doc)
        value = compute_term(spec, 3, "iterate")
        assert parse_poly(value.canonical(), spec.variables) == value

    def test_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(SpecFormatError):
            load_spec(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecFormatError):
            load_spec(bad)

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        # A UTF-16 file starts with the byte-order mark ff fe.
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(CUSTOM_DOC).encode("utf-16-le"))
        with pytest.raises(SpecFormatError, match="^document: not UTF-8"):
            load_spec(path)
        code, out, err = run(capsys, "term", "--spec", str(path), "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: document: not UTF-8") and err.count("\n") == 1


class TestComputeTerm:
    def test_engines_agree_including_index_shift(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, CUSTOM_DOC))
        for n in range(9):
            reference = compute_term(spec, n, "iterate")
            for engine in ENGINES:
                assert compute_term(spec, n, engine) == reference, (engine, n)

    def test_closed_form_takes_general_initials(self):
        # The closed forms give the delta-initial sequence; any other initial
        # window is decomposed over it, with no flag.
        for tag in ("lucas2", "dickson-e"):
            spec = family_spec(tag)
            assert spec.initial != (0, 1)
            for n in range(11):
                reference = compute_term(spec, n, "iterate")
                assert compute_term(spec, n, "multinomial") == reference, (tag, n)
                assert compute_term(spec, n, "determinant") == reference, (tag, n)

    @pytest.mark.parametrize("engine, closed_form", [
        ("multinomial", "multinomial_term"), ("determinant", "band_minors")])
    def test_delta_initials_cost_one_closed_form_call(self, monkeypatch, engine, closed_form):
        # N = (0, 0, 0, 1): only b(n - 3) is evaluated, the zero N_j are
        # skipped.  The multinomial sum is called once, at m = 27; the
        # determinant starts one expansion and draws d_0..d_27 from it.
        calls = []
        original = getattr(engines, closed_form)
        wrappers = {
            "multinomial": lambda coeffs, m, **kw: calls.append(m) or original(coeffs, m, **kw),
            "determinant": lambda coeffs: (calls.append(m) or d
                                           for m, d in enumerate(original(coeffs))),
        }
        monkeypatch.setattr(engines, closed_form, wrappers[engine])
        compute_term(generalized_lucas_spec(4), 30, engine)
        assert calls == ([27] if engine == "multinomial" else list(range(28)))

    def test_each_coefficient_is_negated_at_most_once(self, monkeypatch):
        # The numerator's -c_i enters the fused product as a scale of -1, so
        # no negation is made and the count is 0, within the bound of k.  The
        # multinomial walk itself negates nothing either.
        negations = []
        original = MultiPoly.__neg__
        monkeypatch.setattr(MultiPoly, "__neg__",
                            lambda self: negations.append(1) or original(self))
        variables = ("x",)
        x = MultiPoly.var("x", variables)
        for k in (1, 2, 5, 30):
            spec = RecurrenceSpec.make(variables, [x + i for i in range(k)],
                                       [x + i for i in range(k)])
            negations.clear()
            value = compute_term(spec, k + 2, "multinomial")
            assert len(negations) <= k, k
            assert value == compute_term(spec, k + 2, "iterate")
        spec = generalized_lucas_spec(40)
        negations.clear()
        compute_term(spec, 45, "multinomial")
        assert negations == []


@st.composite
def spec_documents(draw):
    """Order 1-3 over 0-2 variables with general initials, as a JSON spec document."""
    k = draw(st.integers(min_value=1, max_value=3))
    variables = VARS[: draw(st.integers(min_value=0, max_value=2))]
    texts = multipolys(variables, max_terms=2, max_exp=1, coeff_bound=3).map(MultiPoly.canonical)
    return {"variables": list(variables), "order": k,
            "coefficients": draw(st.lists(texts, min_size=k, max_size=k)),
            "initial": draw(st.lists(texts, min_size=k, max_size=k))}


class TestEnginesOnSpecDocuments:
    @settings(max_examples=60, deadline=None)
    @given(doc=spec_documents(), n=st.integers(min_value=-2, max_value=25))
    def test_every_engine_prints_the_same_term(self, tmp_path_factory, doc, n):
        path = write_spec(tmp_path_factory.getbasetemp(), doc, "property_spec.json")
        results = set()
        for engine in ENGINES:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["term", "--spec", path, "--n", str(n), "--engine", engine])
            results.add((code, out.getvalue()))
        assert len(results) == 1, results
        assert results.pop()[0] == (2 if n < 0 else 0)


class TestTermCommand:
    def test_fibonacci_polynomial(self, capsys, tmp_path):
        path = write_spec(tmp_path, CUSTOM_DOC)
        code, out, err = run(capsys, "term", "--spec", path, "--n", "5")
        assert code == 0
        assert out.strip() == "x^4 + 3*x^2*y + y^2"

    def test_dickson_preset(self, capsys):
        code, out, _ = run(capsys, "term", "--family", "dickson-d", "--n", "5",
                           "--engine", "companion")
        assert code == 0
        assert out.strip() == "x^5 - 5*x^3*a + 5*x*a^2"

    def test_json_lines_record(self, capsys):
        code, out, _ = run(capsys, "term", "--family", "dickson-e", "--n", "4",
                           "--format", "json-lines")
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "term"
        assert record["index"] == 4
        assert record["value_canonical"] == "x^4 - 3*x^2*a + a^2"
        assert record["engine"] == "iterate"
        assert isinstance(record["elapsed_ns"], int)

    def test_spec_and_family_are_mutually_exclusive(self, capsys, tmp_path):
        path = write_spec(tmp_path, CUSTOM_DOC)
        code, _, err = run(capsys, "term", "--spec", path, "--family", "dickson-d",
                           "--n", "1")
        assert code == 2 and "exactly one" in err
        code, _, _ = run(capsys, "term", "--n", "1")
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "term", "--family", "fibonacci2", "--n", "25",
                           "--budget", "3")
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("engine", ["multinomial", "determinant"])
    def test_budget_applies_to_closed_form_engines(self, capsys, engine):
        code, out, err = run(capsys, "term", "--family", "fibonacci2", "--n", "6",
                             "--engine", engine, "--budget", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1
        code, out, _ = run(capsys, "term", "--family", "fibonacci2", "--n", "6",
                           "--engine", engine, "--budget", "3")
        assert code == 0 and out == "x^5 + 4*x^3*y + 3*x*y^2\n"

    def test_budget_applies_to_spec_parsing(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": ["x"], "order": 2,
                                     "coefficients": ["(x+1)^100000", "1"], "initial": ["0", "1"]})
        start = time.perf_counter()
        code, out, err = run(capsys, "term", "--spec", path, "--n", "3", "--budget", "10")
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert err == "error: term count 17 exceeds budget 10\n"

    def test_budget_bounds_the_generalized_lucas_variable_count(self, capsys):
        # Building k variables takes time quadratic in k: order 100000 ran
        # for about 20 minutes under --budget 10.  A k above the budget is
        # refused before any variable is built; the subprocess timeout stops
        # a run that builds them.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        argv = ["term", "--family", "generalized-lucas", "--order", "100000", "--n", "1",
                "--budget", "10"]
        proc = subprocess.run([sys.executable, "-m", "recpoly.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "error: variable count 100000 exceeds budget 10\n")
        assert run(capsys, "term", "--family", "generalized-lucas", "--order", "10", "--n", "1",
                   "--budget", "10") == (0, "0\n", "")  # an order at the budget still runs

    @pytest.mark.parametrize("argv", [
        ["term", "--n", "25000", "--engine", "companion"],
        ["table", "--n-max", "25000", "--format", "json-lines"],
    ])
    def test_too_long_to_print_exit_code(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--spec", write_spec(tmp_path, FIB_INT_DOC))
        assert code == 3
        assert err.startswith("error: a coefficient of about ") and err.count("\n") == 1
        assert "4300-digit print limit" in err

    def test_deeply_nested_coefficient_exit_code(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": ["x"], "order": 1,
                                     "coefficients": ["(" * 3000 + "x" + ")" * 3000],
                                     "initial": ["1"]})
        code, out, err = run(capsys, "term", "--spec", path, "--n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "nested" in err and err.count("\n") == 1

    def test_deeply_nested_json_exit_code(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "term", "--spec", str(path), "--n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_spec_exit_code(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": ["x"], "order": 1,
                                     "coefficients": ["x +"], "initial": ["1"]})
        code, _, err = run(capsys, "term", "--spec", path, "--n", "1")
        assert code == 2 and "column" in err

    def test_degree_guard_exit_code(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": ["x"], "order": 2,
                                     "coefficients": ["x^600000", "1"], "initial": ["0", "1"]})
        code, out, err = run(capsys, "term", "--spec", path, "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_multinomial_engine_at_large_n(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": [], "order": 2,
                                     "coefficients": ["1", "1"], "initial": ["0", "1"]})
        outputs = []
        for engine in ("multinomial", "iterate"):
            code, out, err = run(capsys, "term", "--spec", path, "--n", "3000",
                                 "--engine", engine)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_closed_form_on_general_initials_exit_code(self, capsys):
        for tag in ("lucas2", "dickson-e"):
            code, want, _ = run(capsys, "term", "--family", tag, "--n", "5")
            assert code == 0
            for engine in ("multinomial", "determinant"):
                for flag in ([], ["--compose"]):
                    code, out, err = run(capsys, "term", "--family", tag, "--n", "5",
                                         "--engine", engine, *flag)
                    assert (code, out, err) == (0, want, ""), (tag, engine, flag)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_index_exit_code(self, capsys, engine, n):
        code, out, err = run(capsys, "term", "--family", "fibonacci2", "--n", str(n),
                             "--engine", engine)
        assert (code, out) == (2, "")
        assert err == f"error: n must be >= 0, got {n}\n"
        code, out, err = run(capsys, "table", "--family", "fibonacci2", "--n-max", str(n),
                             "--engine", engine)
        assert (code, out) == (2, "")
        assert err == f"error: n_max must be >= 0, got {n}\n"

    def test_long_integer_literal_exit_code(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": ["x"], "order": 2,
                                     "coefficients": ["1" * 5000, "1"], "initial": ["0", "1"]})
        code, out, err = run(capsys, "term", "--spec", path, "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: coefficients[0]: column 1:") and err.count("\n") == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "term", "--family", "fibonacci2", "--n", "1",
                         "--no-such-flag")
        assert code == 2

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "term", "--family", "fibonacci2", "--n", "5",
                             "--budget", budget)
        assert (code, out, err) == (2, "", f"error: --budget must be >= 1, got {budget}\n")


class TestTableCommand:
    def test_table_lines(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "fibonacci2", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["0\t0", "1\t1", "2\tx", "3\tx^2 + y"]

    def test_table_engine_consistency(self, capsys):
        _, out_it, _ = run(capsys, "table", "--family", "fibonacci2", "--n-max", "6")
        _, out_mn, _ = run(capsys, "table", "--family", "fibonacci2", "--n-max", "6",
                           "--engine", "multinomial")
        assert out_it == out_mn

    @pytest.mark.parametrize("engine", ["companion", "multinomial", "determinant"])
    @pytest.mark.parametrize("family", [
        ["--family", "fibonacci2", "--n-max", "80"],
        ["--family", "lucas2", "--n-max", "60"],
        ["--family", "dickson-d", "--n-max", "60"],
        ["--family", "dickson-e", "--n-max", "60"],
        ["--family", "generalized-lucas", "--order", "3", "--n-max", "30"],
        ["--family", "generalized-lucas", "--order", "4", "--n-max", "30"],
    ])
    def test_companion_table_prints_the_iterate_bytes(self, capsys, family, engine):
        code_it, out_it, _ = run(capsys, "table", *family)
        code_cp, out_cp, _ = run(capsys, "table", *family, "--engine", engine)
        assert code_it == code_cp == 0
        assert out_cp == out_it

    @pytest.mark.parametrize("engine", ["multinomial", "determinant"])
    def test_budget_stops_a_closed_form_table_in_row_order(self, capsys, tmp_path, engine):
        # Row 0 prints.  Row 1 fails on its first product N_0 b(1) =
        # (x+y)(x+1), 4 terms, before it forms N_1 (3 terms): the numerator
        # is formed row by row, not ahead of row 0.
        path = write_spec(tmp_path, {"variables": ["x", "y"], "order": 2,
                                     "coefficients": ["x+1", "y"], "initial": ["x+y", "y"]})
        code, out, err = run(capsys, "table", "--spec", path, "--n-max", "3",
                             "--engine", engine, "--budget", "2")
        assert (code, out, err) == (3, "0\tx + y\n", "error: term count 4 exceeds budget 2\n")

    @pytest.mark.parametrize("engine", ["iterate", "companion"])
    def test_json_lines_rows_carry_their_own_time(self, capsys, engine):
        code, out, _ = run(capsys, "table", "--family", "generalized-lucas", "--order", "3",
                           "--n-max", "30", "--engine", engine, "--format", "json-lines")
        assert code == 0
        stamps = [json.loads(line)["elapsed_ns"] for line in out.splitlines()]
        assert len(stamps) == 31
        assert all(isinstance(ns, int) and ns >= 0 for ns in stamps)
        assert len(set(stamps)) > 1

    def test_rows_stream_until_the_print_limit(self, capsys, monkeypatch, tmp_path):
        # Each row is printed before the next is computed: at the 4300-digit
        # print limit the engine has yielded at most the row that failed.
        yielded = []
        original = cli.table_terms

        def counting(*args):
            for value in original(*args):
                yielded.append(1)
                yield value

        monkeypatch.setattr(cli, "table_terms", counting)
        code, out, err = run(capsys, "table", "--spec", write_spec(tmp_path, FIB_INT_DOC),
                             "--n-max", "25000")
        printed = out.count("\n")
        assert code == 3 and "4300-digit print limit" in err
        assert 0 < printed < 25001 and len(yielded) <= printed + 1


class TestDetCommand:
    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "det", "--family", "fibonacci2", "--size", "4")
        assert code == 0
        assert out.strip() == "x^4 + 3*x^2*y + y^2"

    def test_numeric_point(self, capsys):
        code, out, _ = run(capsys, "det", "--family", "fibonacci2", "--size", "9",
                           "--point", "x=1,y=1")
        assert code == 0
        assert out.strip() == "55"

    def test_point_validation(self, capsys):
        code, _, err = run(capsys, "det", "--family", "fibonacci2", "--size", "3",
                           "--point", "x=1")
        assert code == 2 and "missing" in err
        code, _, err = run(capsys, "det", "--family", "fibonacci2", "--size", "3",
                           "--point", "x=1,z=2")
        assert code == 2 and "unknown variable" in err
        code, _, err = run(capsys, "det", "--family", "fibonacci2", "--size", "3",
                           "--point", "x=1,y=two")
        assert code == 2 and "integer" in err


    def test_budget(self, capsys):
        code, out, err = run(capsys, "det", "--family", "fibonacci2", "--size", "30",
                             "--budget", "2")
        assert code == 3 and out == ""
        assert err == "error: term count 3 exceeds budget 2\n"

    def test_budget_stops_before_any_dense_matrix(self, capsys):
        # The symbolic determinant expands over the band: a 3000 x 3000
        # matrix (72 MB of entry references) is never built.
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "det", "--family", "fibonacci2", "--size", "3000",
                                 "--budget", "10")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == "error: term count 11 exceeds budget 10\n"
        assert peak < 2**20, peak

    def test_point_budget_refuses_the_dense_matrix(self, capsys):
        # The Bareiss oracle builds the literal N x N matrix: 9,000,000
        # entries against a budget of 10 are refused before any is built.
        start = time.perf_counter()
        code, out, err = run(capsys, "det", "--family", "fibonacci2", "--size", "3000",
                             "--point", "x=1,y=1", "--budget", "10")
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert err == "error: matrix entry count 9000000 exceeds budget 10\n"

    def test_numeric_value_too_long_to_print(self, capsys):
        # The 2 x 2 determinant is x^2 + y: about 8000 digits at this point.
        code, out, err = run(capsys, "det", "--family", "fibonacci2", "--size", "2",
                             "--point", f"x={10**3999},y=1")
        assert code == 3 and out == ""
        assert err.startswith("error: a coefficient of about 7999 digits")
        assert err.count("\n") == 1


class TestRootsCommand:
    def test_golden_ratio(self, capsys):
        code, out, _ = run(capsys, "roots", "--family", "fibonacci2",
                           "--point", "x=1,y=1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert any("1.61803398875" in line for line in lines)
        assert all(line.endswith("mult=1") for line in lines)

    def test_double_root_multiplicity(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"variables": ["x"], "order": 2,
                                     "coefficients": ["4", "-4"], "initial": ["0", "1"]})
        code, out, _ = run(capsys, "roots", "--spec", path, "--point", "x=0")
        assert code == 0
        assert out.strip().endswith("mult=2")

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "roots", "--family", "fibonacci2",
                           "--point", "x=1,y=1", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["kind"] for r in records] == ["root", "root"]
        assert all(r["engine"] == "durand-kerner" for r in records)
        assert records[1]["multiplicity"] == 1

    def test_coefficient_past_float_range(self, capsys):
        code, out, err = run(capsys, "roots", "--family", "fibonacci2",
                             "--point", f"x={10**400},y=1")
        assert code == 2 and out == ""
        assert err == "error: a coefficient is too large for floating-point root finding\n"


class TestIdentityCommand:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run(capsys, "identity", "--ids", "thm-4.5", "--n-max", "8")
        assert code == 0
        assert "thm-4.5" in out and "PASS" in out

    def test_all_small_range(self, capsys):
        code, out, _ = run(capsys, "identity", "--n-max", "5", "--p-max", "3",
                           "--m-max", "2")
        assert code == 0
        assert out.count("PASS") == 26

    def test_typo_variant_alone_fails(self, capsys):
        code, out, _ = run(capsys, "identity", "--ids", "thm-5.7-d2-as-printed",
                           "--n-max", "6")
        assert code == 0  # expected failure counts as success
        assert "XFAIL" in out

    def test_include_paper_typos_flag(self, capsys):
        code, out, _ = run(capsys, "identity", "--ids", "thm-5.7-d2",
                           "--include-paper-typos", "--n-max", "6", "--m-max", "2")
        assert code == 0
        assert out.count("XFAIL") == 2

    def test_specialized_family_arguments(self, capsys):
        code, out, _ = run(capsys, "identity", "--ids", "thm-4.15", "--n-max", "8",
                           "--q1", "x", "--q2", "1", "--vars", "x")
        assert code == 0

    def test_dickson_ids_ignore_the_family_flags(self, capsys):
        ids = ",".join(i for i in IDENTITY_IDS + TYPO_IDS if i.startswith("thm-5."))
        argv = ["identity", "--ids", ids, "--n-max", "8", "--p-max", "4", "--m-max", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, err, out.count("PASS"), out.count("XFAIL")) == (0, "", 12, 1)
        assert run(capsys, *argv, "--q1", "x", "--q2", "1", "--vars", "x") == (code, out, err)

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "identity", "--ids", "thm-0.0")
        assert code == 2 and "unknown identity ids" in err

    @pytest.mark.parametrize("flag", ["--n-max", "--p-max", "--m-max"])
    def test_negative_range_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "identity", "--ids", "thm-4.9,thm-4.21-3", flag, "-3")
        assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got -3\n")

    def test_power_ids_at_m_max_zero(self, capsys):
        # Each base element still reads index n, past n * m_max = 0.
        ids = "thm-4.21-3,thm-4.21-4,thm-4.21-5,thm-5.6-1,thm-5.6-2,thm-5.6-3"
        code, out, err = run(capsys, "identity", "--ids", ids, "--n-max", "3", "--m-max", "0")
        assert (code, err) == (0, "")
        assert out.count("PASS") == 6

    def test_exact_value_past_float_range(self, capsys):
        # F_n(x^400, y) at a point with |x| = 5 is past the float range from
        # n = 3 on, so the numeric Binet value cannot be compared with it.
        code, out, err = run(capsys, "identity", "--ids", "thm-4.21-12", "--q1", "x^400",
                             "--q2", "y", "--vars", "x,y")
        assert (code, out) == (2, "")
        assert err.startswith("error: thm-4.21-12: ") and err.count("\n") == 1
        assert "float range" in err

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "identity", "--ids", "thm-4.7,thm-4.11",
                           "--n-max", "6", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["id"] for r in records] == ["thm-4.7", "thm-4.11"]
        assert all(r["value_canonical"] == "PASS" for r in records)
        assert all("witness" not in r for r in records)

    def test_failure_carries_its_witness_in_every_format(self, capsys, monkeypatch):
        def broken(store, n_max, p_max, m_max):
            yield {"n": 3, "point": {"x": 1}}, MultiPoly.var("x", ("x",)), "x + 1"

        monkeypatch.setitem(families._CATALOG, "thm-4.5", broken)
        code, out, _ = run(capsys, "identity", "--ids", "thm-4.5")
        assert code == 1
        assert out.splitlines()[1:] == ["    witness: {'n': 3, 'point': {'x': 1}}",
                                        "    lhs: x", "    rhs: x + 1"]
        code, out, _ = run(capsys, "identity", "--ids", "thm-4.5", "--format", "json-lines")
        assert code == 1
        [record] = [json.loads(line) for line in out.splitlines()]
        assert record["value_canonical"] == "FAIL"
        assert record["witness"] == {"params": {"n": 3, "point": {"x": 1}},
                                     "lhs": "x", "rhs": "x + 1"}


class TestBenchCommand:
    @pytest.mark.parametrize("reps", ["0", "-4"])
    def test_reps_below_one_is_usage_error(self, capsys, reps):
        code, out, err = run(capsys, "bench", "--family", "fibonacci2", "--n", "5",
                             "--reps", reps)
        assert (code, out, err) == (2, "", f"error: --reps must be >= 1, got {reps}\n")

    def test_engines_agree_and_report(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "fibonacci2", "--n", "40",
                           "--engines", "iterate,companion,multinomial,determinant",
                           "--reps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("engine\t")
        assert len(lines) == 5
        assert all(line.endswith("yes") for line in lines[1:])

    def test_json_record_shows_the_spread(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "fibonacci2", "--n", "20",
                           "--engines", "iterate,companion", "--reps", "3",
                           "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["engine"] for r in records] == ["iterate", "companion"]
        for record in records:
            assert record["reps"] == 3
            assert all(isinstance(record[f], int) for f in ("min_ns", "elapsed_ns", "max_ns"))
            assert 0 < record["min_ns"] <= record["elapsed_ns"] <= record["max_ns"]

    def test_unknown_engine(self, capsys):
        code, _, err = run(capsys, "bench", "--family", "fibonacci2", "--n", "5",
                           "--engines", "iterate,magic")
        assert code == 2 and "magic" in err

    def test_compose_supports_general_initials(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "lucas2", "--n", "30",
                           "--engines", "iterate,companion,multinomial", "--compose",
                           "--reps", "1")
        assert code == 0


class TestConsoleScript:
    def test_entry_exits_with_the_command_status(self, capsys, monkeypatch):
        # pyproject.toml installs entry() as the recpoly console script.
        monkeypatch.setattr(sys, "argv", ["recpoly", "term", "--family", "fibonacci2", "--n", "5"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "x^4 + 3*x^2*y + y^2\n"


class TestNoNumpy:
    """recpoly has no runtime dependencies; importing numpy would cost every
    process most of its start-up time."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    PROBE = """
import runpy, sys
try:
    if sys.argv[1:]:
        runpy.run_module("recpoly.cli", run_name="__main__", alter_sys=True)
    else:
        import recpoly
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""

    @pytest.mark.parametrize("argv", [[], ["term", "--family", "fibonacci2", "--n", "5"]])
    def test_numpy_is_not_imported(self, argv):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv],
                              env=dict(os.environ, PYTHONPATH=os.path.join(self.ROOT, "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False\n"
        if argv:
            assert proc.stdout == "x^4 + 3*x^2*y + y^2\n"
