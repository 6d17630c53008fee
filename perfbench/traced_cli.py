"""Run one recpoly CLI command with the per-layer tracer installed.

    python3 perfbench/traced_cli.py SUMMARY.jsonl <recpoly arguments...>

Used instead of ``python -m recpoly.cli`` in the traced run of the cli
workload.  It imports ``recpoly.cli``, wraps the library (see tracer.py),
calls ``recpoly.cli.main`` with the remaining arguments, appends one JSON
line of per-layer totals to SUMMARY.jsonl, and exits with main's code.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import recpoly.cli

    t1 = time.perf_counter_ns()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin_pass()
    t2 = time.perf_counter_ns()
    code = recpoly.cli.main(argv)
    t3 = time.perf_counter_ns()
    tracer.end_pass()
    sys.stdout.flush()
    record = tracer.summary()
    record.update(import_ns=t1 - t0, command_ns=t3 - t2)
    with open(summary_path, "a") as out:
        out.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
