"""The benchmark's four workloads: fixed operation lists with their checks.

Each operation is a callable that asks recpoly for one result and a check
that judges the result against :mod:`reference`, never against recorded
output.  The library is reached only through names in ``recpoly.__all__``,
looked up at call time so that a traced run sees its wrappers; the CLI only
as ``python -m recpoly.cli`` with ``PYTHONPATH=src``.

The seed picks evaluation points and nothing that changes the amount of
work: the specs and the values of n are fixed.
"""

from __future__ import annotations

import json
import random
import subprocess
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import reference as ref

WORKLOADS = ("catalog", "engines", "integer", "cli")

# Points at which every symbolic result is evaluated.
POINTS_PER_CHECK = 2
# Binet values are numeric; the catalog's own numeric tolerance.
BINET_REL_TOL = 1e-8
# The multiple-root input of binet_multiple, fixed because Durand-Kerner's
# iteration count (and so the work) depends on it.  On this input
# char_roots + binet_multiple meet BINET_REL_TOL with a wide margin; on most
# (a, a, b) inputs they do not (see the README).
MULTIPLE_ROOTS = (4, 4, 6)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``run()`` gives a result, ``check(result)``
    returns None when it is correct and a one-line reason otherwise."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def _mismatch(label, got, want) -> str:
    return f"{label}: got {str(got)[:80]}, want {str(want)[:80]}"


# -- points --------------------------------------------------------------------


def _uv_points(rng: random.Random) -> list[tuple[int, int]]:
    """Pairs u != v, both nonzero, so u - v divides the Fibonacci forms."""
    points = []
    while len(points) < POINTS_PER_CHECK:
        u, v = rng.randint(-9, 9), rng.randint(-9, 9)
        if u and v and u != v:
            points.append((u, v))
    return points


def _root_triples(rng: random.Random) -> list[tuple[int, ...]]:
    return [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(POINTS_PER_CHECK)]


# -- symbolic checks -------------------------------------------------------------


def _symbolic_check(variables: Sequence[str], cases: list[tuple[dict, int]]):
    """Check a canonical string against (point, expected value) pairs."""

    def check(text) -> Optional[str]:
        try:
            terms = ref.parse_canonical(text, variables)
        except (ValueError, AttributeError) as exc:
            return f"unreadable canonical string: {exc}"
        for point, want in cases:
            got = ref.evaluate(terms, [point[v] for v in variables])
            if got != want:
                return _mismatch(f"value at {point}", got, want)
        return None

    return check


def _fib2_cases(uvs, n):
    return [({"x": u + v, "y": -u * v}, ref.fibonacci_uv(u, v, n)) for u, v in uvs]


def _lucas2_cases(uvs, n):
    return [({"x": u + v, "y": -u * v}, ref.lucas_uv(u, v, n)) for u, v in uvs]


def _dickson_d_cases(uvs, n):
    return [({"x": u + v, "a": u * v}, ref.dickson_d(u, v, n)) for u, v in uvs]


def _dickson_e_cases(uvs, n):
    return [({"x": u + v, "a": u * v}, ref.dickson_e(u, v, n)) for u, v in uvs]


def _glucas_cases(triples, n):
    return [(ref.glucas_point(r), ref.glucas(r, n)) for r in triples]


def _self_test_references(uvs, triples) -> None:
    """The closed forms must agree with plain integer recurrences; a failure
    here is a fault of the benchmark, so it stops the run."""
    for u, v in uvs:
        x, y = u + v, -u * v
        fib = ref.linear_recurrence([x, y], [0, 1], 40)
        luc = ref.linear_recurrence([x, y], [2, x], 40)
        d = ref.linear_recurrence([x, -u * v], [2, x], 40)
        e = ref.linear_recurrence([x, -u * v], [1, x], 40)
        for n in range(41):
            if (fib[n], luc[n], d[n], e[n]) != (ref.fibonacci_uv(u, v, n), ref.lucas_uv(u, v, n),
                                                ref.dickson_d(u, v, n), ref.dickson_e(u, v, n)):
                raise RuntimeError(f"reference closed forms disagree at u={u}, v={v}, n={n}")
    for r in triples:
        seq = ref.linear_recurrence(ref.glucas_coeff_values(r), [0] * (len(r) - 1) + [1], 40)
        if any(seq[n] != ref.glucas(r, n) for n in range(41)):
            raise RuntimeError(f"reference h_n disagrees with the recurrence at r={r}")


# -- engines ---------------------------------------------------------------------


def _engine_ops(rp, label, spec, n, iter_check, closed_check) -> list[Op]:
    """The four symbolic engines on one (spec, n), each ending at canonical().

    Iteration and the companion power follow the spec's own initials and
    give P_n; the closed forms give the delta-initial sequence P^(k-1) at
    the same index, which they take as m = n - k + 1.
    """
    m = n - spec.order + 1
    return [
        Op(f"{label}.iterate", lambda: rp.iterate_terms(spec, n)[n].canonical(), iter_check),
        Op(f"{label}.companion", lambda: rp.companion_power_term(spec, n).canonical(), iter_check),
        Op(f"{label}.multinomial", lambda: rp.multinomial_term(spec.coeffs, m).canonical(),
           closed_check),
        Op(f"{label}.determinant", lambda: rp.hessenberg_det_symbolic(spec.coeffs, m).canonical(),
           closed_check),
    ]


def engines(rp, rng: random.Random) -> list[Op]:
    uvs, triples = _uv_points(rng), _root_triples(rng)
    _self_test_references(uvs, triples)
    glucas3 = _symbolic_check(("x1", "x2", "x3"), _glucas_cases(triples, 60))
    fib2 = _symbolic_check(("x", "y"), _fib2_cases(uvs, 120))
    ops = _engine_ops(rp, "glucas3.n60", rp.family_spec("generalized-lucas", 3), 60,
                      glucas3, glucas3)
    ops += _engine_ops(rp, "fibonacci2.n120", rp.family_spec("fibonacci2"), 120, fib2, fib2)
    # Dickson pair (x, -a): initials (2, x) give D_n by iteration, and the
    # delta-initial sequence at index n is E_(n-1).
    ops += _engine_ops(rp, "dickson.n200", rp.family_spec("dickson-d"), 200,
                       _symbolic_check(("x", "a"), _dickson_d_cases(uvs, 200)),
                       _symbolic_check(("x", "a"), _dickson_e_cases(uvs, 199)))
    return ops


# -- integer ---------------------------------------------------------------------


def _integer_spec(rp, coeffs: Sequence[int], initial: Sequence[int]):
    return rp.spec_from_mapping({
        "variables": [], "order": len(coeffs),
        "coefficients": [str(c) for c in coeffs], "initial": [str(p) for p in initial],
    })


def _binet_check(roots, n, mults):
    want = ref.complete_homogeneous(roots, n)

    def check(result) -> Optional[str]:
        profile, value = result
        if tuple(profile.mults) != mults:
            return _mismatch("multiplicities", profile.mults, mults)
        if not ref.rel_close(value, want, BINET_REL_TOL):
            return _mismatch("binet value", value, want)
        return None

    return check


def integer(rp, rng: random.Random) -> list[Op]:
    ops = []
    for label, coeffs, n in (("fibonacci.n500", (1, 1), 500), ("order3.n300", (2, -1, 3), 300)):
        delta = [0] * (len(coeffs) - 1) + [1]
        check = _symbolic_check((), [({}, ref.linear_recurrence(coeffs, delta, n)[n])])
        ops += _engine_ops(rp, label, _integer_spec(rp, coeffs, delta), n, check, check)

    # Bareiss oracle on the literal 100 x 100 Hessenberg matrix at x_i = e_i(r).
    glucas3 = rp.family_spec("generalized-lucas", 3)
    # Roots of one magnitude band keep the integers, and the work, the same size.
    r_det = tuple(sorted(rng.sample(range(6, 10), 3)))
    point = ref.glucas_point(r_det)
    want_det = ref.complete_homogeneous(r_det, 100)
    ops.append(Op("bareiss.size100",
                  lambda: rp.hessenberg_det_numeric_oracle(glucas3.coeffs, 100, point),
                  lambda got: None if got == want_det else _mismatch("det", got, want_det)))

    # Binet engines from numerically found roots of prod (X - r_j).
    r_distinct = tuple(sorted(rng.sample(range(2, 10), 3)))

    def binet_distinct():
        profile = rp.char_roots(ref.glucas_coeff_values(r_distinct))
        return profile, rp.binet_distinct(profile, 150)

    def binet_multiple():
        profile = rp.char_roots(ref.glucas_coeff_values(MULTIPLE_ROOTS))
        return profile, rp.binet_multiple(profile, 300)

    ops.append(Op("binet.distinct.n150", binet_distinct, _binet_check(r_distinct, 150, (1, 1, 1))))
    ops.append(Op("binet.multiple.n300", binet_multiple, _binet_check(MULTIPLE_ROOTS, 300, (2, 1))))
    return ops


# -- catalog ---------------------------------------------------------------------


def _typo_witness_check(identity_id: str, uvs, triples):
    """A documented typo must fail, and its witness must be a real mismatch:
    lhs is the true value and rhs the as-printed form, read independently."""

    def check(report) -> Optional[str]:
        if report.status != "fail" or report.witness is None:
            return f"{identity_id}: expected a failure with a witness, got {report.status}"
        params, lhs, rhs = report.witness
        try:
            if identity_id == "thm-5.7-d2-as-printed":
                # lhs = D_2n, rhs = E_(n+1)^2 - 2a E_(n-1)^2 + a^2 E_(n-2)^2.
                n = params["n"]
                variables = ("x", "a")
                for u, v in uvs:
                    point = {"x": u + v, "a": u * v}
                    a = u * v
                    want_lhs = ref.dickson_d(u, v, 2 * n)
                    want_rhs = (ref.dickson_e(u, v, n + 1) ** 2 - 2 * a * ref.dickson_e(u, v, n - 1) ** 2
                                + a**2 * ref.dickson_e(u, v, n - 2) ** 2)
                    if ref.eval_canonical(lhs, variables, point) != want_lhs:
                        return f"{identity_id}: witness lhs is not D_2n at n={n}"
                    if ref.eval_canonical(rhs, variables, point) != want_rhs:
                        return f"{identity_id}: witness rhs is not the printed form at n={n}"
            else:
                # lhs = P_n, rhs = the printed sign (-1)^(k + sum i) = (-1)^(n+1) P_n.
                k, n = params["k"], params["n"]
                variables = tuple(f"x{i}" for i in range(1, k + 1))
                roots = [r + (0,) * (k - 3) if k > 3 else r[:k] for r in triples]
                for r in roots:
                    want = ref.glucas(r, n)
                    if ref.eval_canonical(lhs, variables, ref.glucas_point(r)) != want:
                        return f"{identity_id}: witness lhs is not P_n at k={k}, n={n}"
                    if ref.eval_canonical(rhs, variables, ref.glucas_point(r)) != (-1) ** (n + 1) * want:
                        return f"{identity_id}: witness rhs is not the printed sign at k={k}, n={n}"
            if ref.parse_canonical(lhs, variables) == ref.parse_canonical(rhs, variables):
                return f"{identity_id}: witness sides are equal"
        except (KeyError, ValueError) as exc:
            return f"{identity_id}: unreadable witness: {exc}"
        return None

    return check


def _pass_check(identity_id: str):
    def check(report) -> Optional[str]:
        if report.status != "pass" or report.witness is not None:
            return f"{identity_id}: expected pass, got {report.status} {report.witness}"
        return None

    return check


def catalog(rp, rng: random.Random) -> list[Op]:
    uvs, triples = _uv_points(rng), _root_triples(rng)
    _self_test_references(uvs, triples)
    family = rp.generic_family()
    ops = []
    for identity_id in (*rp.IDENTITY_IDS, *rp.TYPO_IDS):
        check = (_typo_witness_check(identity_id, uvs, triples) if identity_id in rp.TYPO_IDS
                 else _pass_check(identity_id))
        # CLI defaults: n <= 30, p <= 10, m <= 6, catalog seed 0.
        ops.append(Op(identity_id,
                      lambda i=identity_id: rp.check_identity(i, family, n_max=30, p_max=10,
                                                              m_max=6, seed=0),
                      check))
    return ops


# -- cli -------------------------------------------------------------------------


def run_cli(prefix: Sequence[str], args: Sequence[str], cwd: str, env: dict) -> CliResult:
    proc = subprocess.run([*prefix, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _cli_check(parse_output: Callable[[str], Optional[str]]):
    def check(result) -> Optional[str]:
        if result.returncode != 0:
            return f"exit code {result.returncode}: {result.stderr.strip()[-120:]}"
        if result.stderr:
            return f"unexpected stderr: {result.stderr.strip()[-120:]}"
        return parse_output(result.stdout)

    return check


def _lines_check(check_one, count: int):
    def parse_output(stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        if len(lines) != count:
            return f"expected {count} lines, got {len(lines)}"
        for line in lines:
            problem = check_one(line)
            if problem:
                return problem
        return None

    return parse_output


def cli(rp, rng: random.Random, prefix: Sequence[str], cwd: str, env: dict) -> list[Op]:
    uvs, triples = _uv_points(rng), _root_triples(rng)
    _self_test_references(uvs, triples)
    r_det = tuple(sorted(rng.sample(range(2, 10), 3)))
    det_point = ref.glucas_point(r_det)
    u_root, v_root = sorted(rng.sample(range(-9, 10), 2))

    table_checks = {n: _symbolic_check(("x", "y"), _lucas2_cases(uvs, n)) for n in range(21)}

    def table_row(line):
        index, _, text = line.partition("\t")
        return table_checks[int(index)](text)

    def roots_output(stdout):
        lines = stdout.splitlines()
        if len(lines) != 2:
            return f"expected 2 roots, got {len(lines)}"
        for line, want in zip(lines, (u_root, v_root)):
            value, _, mult = line.partition("\t")
            if mult != "mult=1" or abs(complex(value) - want) > 1e-9 * max(1, abs(want)):
                return _mismatch("root", line, want)
        return None

    bench_check = _symbolic_check(("x", "y"), _fib2_cases(uvs, 40))

    def bench_record(line):
        record = json.loads(line)
        if record.get("kind") != "bench":
            return f"unexpected record {line[:60]}"
        return bench_check(record["value_canonical"])

    identity_id = "thm-5.6-3"
    commands = [
        ("term.family", ["term", "--family", "generalized-lucas", "--order", "3", "--n", "30",
                         "--engine", "multinomial"],
         _symbolic_check(("x1", "x2", "x3"), _glucas_cases(triples, 30))),
        ("term.spec", ["term", "--spec", "perfbench/specs/dickson_d.json", "--n", "30",
                       "--engine", "companion"],
         _symbolic_check(("x", "a"), _dickson_d_cases(uvs, 30))),
        ("table", ["table", "--family", "lucas2", "--n-max", "20"], _lines_check(table_row, 21)),
        ("det.point", ["det", "--family", "generalized-lucas", "--order", "3", "--size", "40",
                       "--point", ",".join(f"{k}={v}" for k, v in det_point.items())],
         lambda out: (None if out.strip() == str(ref.complete_homogeneous(r_det, 40))
                      else _mismatch("det", out.strip(), ref.complete_homogeneous(r_det, 40)))),
        ("roots", ["roots", "--family", "fibonacci2",
                   "--point", f"x={u_root + v_root},y={-u_root * v_root}"], roots_output),
        ("identity", ["identity", "--ids", identity_id, "--n-max", "10", "--m-max", "3"],
         lambda out: None if out.split() == [identity_id, "n<=10,p<=10,m<=3", "PASS"]
         else _mismatch("identity", out.strip(), "PASS")),
        ("bench", ["bench", "--family", "fibonacci2", "--n", "40", "--engines",
                   "iterate,companion,multinomial,determinant", "--reps", "1",
                   "--format", "json-lines"], _lines_check(bench_record, 4)),
    ]
    return [Op(name, lambda a=args: run_cli(prefix, a, cwd, env), _cli_check(parse))
            for name, args, parse in commands]
