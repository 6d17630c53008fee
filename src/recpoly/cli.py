"""Command-line interface.

Subcommands: term, table, identity, bench, det, roots.  Output is
byte-deterministic for identical inputs: polynomial terms print in the
canonical graded-lex form and floats use 12 significant digits.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Optional, Sequence

from .binet import char_roots
from .closedform import hessenberg_det_numeric_oracle, hessenberg_det_symbolic
from .engines import ENGINES, compute_term, table_terms
from .errors import BudgetExceededError, RootFindingError, StructuralError
from .families import IDENTITY_IDS, TYPO_IDS, Order2Family, check_identity
from .parse import ParseError, parse_poly
from .recurrence import RecurrenceSpec
from .ring import int_text, term_budget
from .specfile import FAMILY_TAGS, SpecFormatError, family_spec, load_spec

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _emit(args, text_line: str, record: dict) -> None:
    if args.format == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text_line)


# -- spec/point plumbing --------------------------------------------------------


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="path to a JSON spec document")
    parser.add_argument("--family", choices=[t for t in FAMILY_TAGS if t != "custom"],
                        help="use a family preset instead of a spec file")
    parser.add_argument("--order", type=int,
                        help="order k (generalized-lucas preset only)")


def _resolve_spec(args) -> RecurrenceSpec:
    if bool(args.spec) == bool(args.family):
        raise UsageError("exactly one of --spec or --family is required")
    if args.spec:
        return load_spec(args.spec)
    return family_spec(args.family, args.order)


def _parse_point(text: str, variables: Sequence[str]) -> dict[str, int]:
    point: dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in variables:
            raise UsageError(f"--point names unknown variable {name!r}")
        try:
            point[name] = int(value)
        except ValueError:
            raise UsageError(f"--point value for {name!r} must be an integer")
    missing = [v for v in variables if v not in point]
    if missing:
        raise UsageError(f"--point is missing assignments for: {', '.join(missing)}")
    return point


# -- subcommands -----------------------------------------------------------------


def _cmd_term(args) -> int:
    spec = _resolve_spec(args)
    start = time.perf_counter_ns()
    value = compute_term(spec, args.n, args.engine)
    elapsed = time.perf_counter_ns() - start
    text = value.canonical()
    _emit(args, text, {
        "kind": "term", "index": args.n, "value_canonical": text,
        "engine": args.engine, "elapsed_ns": elapsed,
    })
    return EXIT_OK


def _cmd_table(args) -> int:
    spec = _resolve_spec(args)
    values = table_terms(spec, args.n_max, args.engine)
    # Each row is printed as it comes and carries the ns its engine step
    # took, printing excluded.
    start = time.perf_counter_ns()
    for n, value in enumerate(values):
        elapsed = time.perf_counter_ns() - start
        text = value.canonical()
        _emit(args, f"{n}\t{text}", {
            "kind": "term", "index": n, "value_canonical": text,
            "engine": args.engine, "elapsed_ns": elapsed,
        })
        start = time.perf_counter_ns()
    return EXIT_OK


def _cmd_det(args) -> int:
    spec = _resolve_spec(args)
    start = time.perf_counter_ns()
    if args.point:
        point = _parse_point(args.point, spec.variables)
        value = hessenberg_det_numeric_oracle(spec.coeffs, args.size, point)
        text = int_text(value)
        engine = "bareiss"
    else:
        text = hessenberg_det_symbolic(spec.coeffs, args.size).canonical()
        engine = "determinant"
    elapsed = time.perf_counter_ns() - start
    _emit(args, text, {
        "kind": "det", "index": args.size, "value_canonical": text,
        "engine": engine, "elapsed_ns": elapsed,
    })
    return EXIT_OK


def _cmd_roots(args) -> int:
    spec = _resolve_spec(args)
    point = _parse_point(args.point, spec.variables)
    start = time.perf_counter_ns()
    profile = char_roots([c.eval_int(point) for c in spec.coeffs])
    elapsed = time.perf_counter_ns() - start
    for i, (root, mult) in enumerate(zip(profile.roots, profile.mults)):
        _emit(args, f"{_fmt_complex(root)}\tmult={mult}", {
            "kind": "root", "index": i, "value_canonical": _fmt_complex(root),
            "engine": "durand-kerner", "elapsed_ns": elapsed, "multiplicity": mult,
        })
    return EXIT_OK


def _identity_family(args) -> Optional[Order2Family]:
    if args.q1 is None and args.q2 is None:
        return None  # generic family
    if args.q1 is None or args.q2 is None:
        raise UsageError("--q1 and --q2 must be given together")
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not variables:
        raise UsageError("--vars must name at least one variable")
    return Order2Family(parse_poly(args.q1, variables), parse_poly(args.q2, variables))


def _cmd_identity(args) -> int:
    for flag, value in (("--n-max", args.n_max), ("--p-max", args.p_max),
                        ("--m-max", args.m_max)):
        if value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    family = _identity_family(args)
    if args.ids.strip() == "all":
        ids = list(IDENTITY_IDS)
    else:
        ids = [i.strip() for i in args.ids.split(",") if i.strip()]
        if not ids:
            raise UsageError("empty identity id list")
        unknown = [i for i in ids if i not in IDENTITY_IDS and i not in TYPO_IDS]
        if unknown:
            raise UsageError(f"unknown identity ids: {', '.join(unknown)}")
    expected_failures = set(TYPO_IDS)
    if args.include_paper_typos:
        ids += [i for i in TYPO_IDS if i not in ids]

    all_ok = True
    for identity_id in ids:
        start = time.perf_counter_ns()
        report = check_identity(identity_id, family,
                                n_max=args.n_max, p_max=args.p_max, m_max=args.m_max)
        elapsed = time.perf_counter_ns() - start
        expect_fail = identity_id in expected_failures
        if expect_fail:
            ok = not report.passed
            label = "XFAIL (expected failure as printed)" if ok else "UNEXPECTED PASS"
        else:
            ok = report.passed
            label = "PASS" if ok else "FAIL"
        all_ok &= ok
        line = f"{identity_id}  {report.index_range}  {label}"
        record = {
            "kind": "identity", "id": identity_id, "value_canonical": label,
            "engine": "catalog", "elapsed_ns": elapsed,
        }
        if report.witness is not None and not expect_fail:
            params, lhs, rhs = report.witness
            line += f"\n    witness: {params}\n    lhs: {lhs}\n    rhs: {rhs}"
            record["witness"] = {"params": params, "lhs": lhs, "rhs": rhs}
        _emit(args, line, record)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    spec = _resolve_spec(args)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not engines:
        raise UsageError("no engines selected")
    for engine in engines:
        if engine not in ENGINES:
            raise UsageError(f"unknown engine {engine!r}")
    results = {}
    timings = {}
    for engine in engines:
        samples = []
        for _ in range(args.reps):
            start = time.perf_counter_ns()
            value = compute_term(spec, args.n, engine)
            samples.append(time.perf_counter_ns() - start)
        results[engine] = value
        timings[engine] = samples
    baseline = results[engines[0]]
    for engine in engines[1:]:
        if results[engine] != baseline:
            # Correctness gate: disagreement is a hard error, not a table row.
            print(f"error: engine {engine!r} disagrees with {engines[0]!r} at n={args.n}",
                  file=sys.stderr)
            print(f"  {engines[0]}: {baseline.canonical()}", file=sys.stderr)
            print(f"  {engine}: {results[engine].canonical()}", file=sys.stderr)
            return EXIT_VERIFICATION
    if args.format != "json-lines":
        print("engine\tmedian_ms\tterms\tagreement")
    for engine in engines:
        samples = timings[engine]
        median = int(statistics.median(samples))
        _emit(args, f"{engine}\t{median / 1e6:.12g}\t{results[engine].term_count()}\tyes", {
            "kind": "bench", "id": engine,
            "value_canonical": results[engine].canonical(),
            "engine": engine, "elapsed_ns": median,
            "min_ns": min(samples), "max_ns": max(samples), "reps": len(samples),
        })
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recpoly",
        description="Order-k recurrent polynomial sequences: engines, identities, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    compose_help = "no effect (kept for old command lines): every engine takes any initial window"

    def common(p, engine=True):
        _add_spec_args(p)
        if engine:
            p.add_argument("--engine", choices=ENGINES, default="iterate")
            p.add_argument("--compose", action="store_true", help=compose_help)
        p.add_argument("--budget", type=int, default=None, metavar="TERMS",
                       help="maximum term count of any intermediate polynomial")
        p.add_argument("--format", choices=("text", "json-lines"), default="text")

    p_term = sub.add_parser("term", help="print one sequence term")
    common(p_term)
    p_term.add_argument("--n", type=int, required=True)
    p_term.set_defaults(func=_cmd_term)

    p_table = sub.add_parser("table", help="print terms 0..n_max")
    common(p_table)
    p_table.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_table.set_defaults(func=_cmd_table)

    p_det = sub.add_parser("det", help="Hessenberg determinant of a given size")
    common(p_det, engine=False)
    p_det.add_argument("--size", type=int, required=True)
    p_det.add_argument("--point", help="integer point var=value,... for the numeric oracle")
    p_det.set_defaults(func=_cmd_det)

    p_roots = sub.add_parser("roots", help="numeric characteristic roots at a point")
    common(p_roots, engine=False)
    p_roots.add_argument("--point", required=True,
                         help="integer point var=value,...")
    p_roots.set_defaults(func=_cmd_roots)

    p_id = sub.add_parser("identity", help="run the identity catalog")
    p_id.add_argument("--ids", default="all",
                      help="comma-separated identity ids, or 'all'")
    p_id.add_argument("--n-max", type=int, default=30, dest="n_max")
    p_id.add_argument("--p-max", type=int, default=10, dest="p_max")
    p_id.add_argument("--m-max", type=int, default=6, dest="m_max")
    p_id.add_argument("--include-paper-typos", action="store_true",
                      help="also run the as-printed variants (expected to fail)")
    p_id.add_argument("--q1", help="q1 expression (default: generic free variable)")
    p_id.add_argument("--q2", help="q2 expression (default: generic free variable)")
    p_id.add_argument("--vars", default="x,y", help="variable list for --q1/--q2")
    p_id.add_argument("--format", choices=("text", "json-lines"), default="text")
    p_id.set_defaults(func=_cmd_identity)

    p_bench = sub.add_parser("bench", help="time engines and enforce agreement")
    common(p_bench, engine=False)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--engines", default="iterate,companion")
    p_bench.add_argument("--compose", action="store_true", help=compose_help)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 1:
            raise UsageError(f"--budget must be >= 1, got {budget}")
        with term_budget(budget):
            return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ParseError, SpecFormatError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
