import json

import pytest

from recpoly import MultiPoly, SpecFormatError, family_spec, load_spec, spec_from_mapping
from recpoly.cli import compute_term, main


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


class TestSpecDocuments:
    def test_load_custom_spec(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, CUSTOM_DOC))
        assert spec.order == 2
        assert spec.variables == ("x", "y")
        assert spec.has_delta_initials()

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

    def test_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(SpecFormatError):
            load_spec(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecFormatError):
            load_spec(bad)


class TestComputeTerm:
    def test_engines_agree_including_index_shift(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, CUSTOM_DOC))
        for n in range(9):
            reference = compute_term(spec, n, "iterate")
            for engine in ("companion", "multinomial", "determinant"):
                assert compute_term(spec, n, engine) == reference, (engine, n)

    def test_closed_form_needs_delta_or_compose(self):
        spec = family_spec("lucas2")
        from recpoly.cli import UsageError
        with pytest.raises(UsageError):
            compute_term(spec, 4, "multinomial")
        # --compose decomposes general initials over the delta basis.
        from recpoly import iterate_terms
        terms = iterate_terms(spec, 10)
        for n in range(11):
            assert compute_term(spec, n, "multinomial", compose=True) == terms[n]
            assert compute_term(spec, n, "determinant", compose=True) == terms[n]


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

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "term", "--family", "fibonacci2", "--n", "1",
                         "--no-such-flag")
        assert code == 2


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

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "identity", "--ids", "thm-0.0")
        assert code == 2 and "unknown identity ids" in err

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "identity", "--ids", "thm-4.7,thm-4.11",
                           "--n-max", "6", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["id"] for r in records] == ["thm-4.7", "thm-4.11"]
        assert all(r["value_canonical"] == "PASS" for r in records)


class TestBenchCommand:
    def test_engines_agree_and_report(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "fibonacci2", "--n", "40",
                           "--engines", "iterate,companion,multinomial,determinant",
                           "--reps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("engine\t")
        assert len(lines) == 5
        assert all(line.endswith("yes") for line in lines[1:])

    def test_unknown_engine(self, capsys):
        code, _, err = run(capsys, "bench", "--family", "fibonacci2", "--n", "5",
                           "--engines", "iterate,magic")
        assert code == 2 and "magic" in err

    def test_compose_supports_general_initials(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "lucas2", "--n", "30",
                           "--engines", "iterate,companion,multinomial", "--compose",
                           "--reps", "1")
        assert code == 0
