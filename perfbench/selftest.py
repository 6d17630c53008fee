"""Negative and positive controls for the benchmark's checks.

    PYTHONPATH=src python3 perfbench/selftest.py

Each perturbed result (one coefficient off by one, an engine output handed
to another engine's check, a wrong exit code, a catalog status flipped)
must be counted as a failed operation by the same pass loop the benchmark
uses; each untouched result must pass.
"""

from __future__ import annotations

import os
import random
import re
import sys
import unittest

import recpoly as rp

import reference as ref
import workloads
from worker import run_passes

SEED = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ops_by_name(ops):
    return {op.name: op for op in ops}


def counted(op, result):
    """Run one pass whose only operation returns ``result`` under op's check."""
    fake = workloads.Op(op.name, lambda: result, op.check)
    return run_passes([fake], SEED, 0.0)


def bump_first_coefficient(text: str) -> str:
    match = re.search(r"(\d+)\*", text)
    start, end = match.span(1)
    return text[:start] + str(int(match.group(1)) + 1) + text[end:]


class ReferenceTests(unittest.TestCase):
    def test_parse_canonical_round_trip(self):
        poly = rp.parse_poly("-3*x^2*y + x - 7", ("x", "y"))
        self.assertEqual(ref.parse_canonical(poly.canonical(), ("x", "y")),
                         {(2, 1): -3, (1, 0): 1, (0, 0): -7})

    def test_parse_canonical_rejects_junk(self):
        for text in ("x +", "2x", "x + + y", "z^2", "x + x"):
            with self.assertRaises(ValueError, msg=text):
                ref.parse_canonical(text, ("x", "y"))

    def test_closed_forms_match_recurrences(self):
        self.assertEqual(ref.complete_homogeneous((2, 3), 2), 4 + 6 + 9)
        self.assertEqual(ref.fibonacci_uv(3, -2, 5), ref.linear_recurrence([1, 6], [0, 1], 5)[5])


class EngineControls(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ops = ops_by_name(workloads.engines(rp, random.Random(SEED)))
        cls.outputs = {name: cls.ops[name].run() for name in
                       ("fibonacci2.n120.iterate", "dickson.n200.iterate",
                        "dickson.n200.multinomial")}

    def test_correct_outputs_pass(self):
        for name, text in self.outputs.items():
            report = counted(self.ops[name], text)
            self.assertEqual((report["failed"], report["wrong"]), (0, 0), name)

    def test_coefficient_off_by_one_fails(self):
        name = "fibonacci2.n120.iterate"
        report = counted(self.ops[name], bump_first_coefficient(self.outputs[name]))
        self.assertEqual((report["attempted"], report["failed"], report["wrong"]), (1, 1, 1))

    def test_swapped_engine_output_fails(self):
        # E_199 from the closed form handed to the check of D_200, and back.
        iterate, closed = "dickson.n200.iterate", "dickson.n200.multinomial"
        for name, text in ((iterate, self.outputs[closed]), (closed, self.outputs[iterate])):
            report = counted(self.ops[name], text)
            self.assertEqual(report["failed"], 1, name)

    def test_raising_operation_fails_but_is_not_wrong(self):
        def boom():
            raise RecursionError("maximum recursion depth exceeded")

        op = workloads.Op("raises", boom, lambda result: None)
        report = run_passes([op], SEED, 0.0)
        self.assertEqual((report["failed"], report["wrong"]), (1, 0))


class IntegerControls(unittest.TestCase):
    def test_binet_value_off_fails(self):
        ops = ops_by_name(workloads.integer(rp, random.Random(SEED)))
        op = ops["binet.distinct.n150"]
        profile, value = op.run()
        self.assertEqual(counted(op, (profile, value))["failed"], 0)
        self.assertEqual(counted(op, (profile, value * (1 + 1e-6)))["failed"], 1)

    def test_integer_off_by_one_fails(self):
        op = ops_by_name(workloads.integer(rp, random.Random(SEED)))["fibonacci.n500.companion"]
        text = op.run()
        self.assertEqual(counted(op, text)["failed"], 0)
        self.assertEqual(counted(op, str(int(text) + 1))["failed"], 1)


class CatalogControls(unittest.TestCase):
    def test_flipped_status_fails(self):
        ops = ops_by_name(workloads.catalog(rp, random.Random(SEED)))
        passing, typo = ops["thm-5.7-d2"], ops["thm-5.7-d2-as-printed"]
        good_pass, good_typo = passing.run(), typo.run()
        self.assertEqual(counted(passing, good_pass)["failed"], 0)
        self.assertEqual(counted(typo, good_typo)["failed"], 0)
        self.assertEqual(counted(passing, good_typo)["failed"], 1)
        self.assertEqual(counted(typo, good_pass)["failed"], 1)

    def test_witness_with_wrong_rhs_fails(self):
        op = ops_by_name(workloads.catalog(rp, random.Random(SEED)))["thm-2.6-sign-as-printed"]
        report = op.run()
        params, lhs, _ = report.witness
        forged = rp.IdentityReport(report.identity_id, report.index_range, "fail",
                                   (params, lhs, lhs))
        self.assertEqual(counted(op, report)["failed"], 0)
        self.assertEqual(counted(op, forged)["failed"], 1)


class CliControls(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ops = workloads.cli(rp, random.Random(SEED), [sys.executable, "-m", "recpoly.cli"], ROOT,
                            dict(os.environ, PYTHONPATH="src"))
        cls.ops = ops_by_name(ops)
        cls.term = cls.ops["term.spec"].run()

    def test_correct_output_passes(self):
        self.assertEqual(counted(self.ops["term.spec"], self.term)["failed"], 0)

    def test_wrong_exit_code_fails(self):
        for code in (1, 2, 3):
            result = workloads.CliResult(code, self.term.stdout, self.term.stderr)
            self.assertEqual(counted(self.ops["term.spec"], result)["failed"], 1, code)

    def test_traceback_on_stderr_fails(self):
        result = workloads.CliResult(0, self.term.stdout, "Traceback (most recent call last):\n")
        self.assertEqual(counted(self.ops["term.spec"], result)["failed"], 1)

    def test_coefficient_off_by_one_fails(self):
        result = workloads.CliResult(0, bump_first_coefficient(self.term.stdout), "")
        self.assertEqual(counted(self.ops["term.spec"], result)["failed"], 1)


if __name__ == "__main__":
    unittest.main()
