"""recpoly benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/recpoly``.  With
``--trace 0`` it reports the end-to-end metrics (set-up time, pass time,
geometric mean of per-operation medians, peak memory); with ``--trace 1``
it reports the per-layer metrics of a traced run.  Metric names and units
come from BENCHMARK.json at the root of the checkout.  Every operation's output
is checked against the benchmark's own references; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def start_worker(args, extra: list[str], running: list):
    """Start a worker; return (process, seconds from spawn to its ``ready``)."""
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    running.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line != "ready\n":
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def measure(args, running: list) -> tuple[dict, list[float]]:
    """Run the measuring worker.  Between passes it asks for set-up samples,
    so that they are spread over the run: each is a fresh set-up-only worker
    timed from spawn to ``ready`` while the measuring worker waits."""
    proc, ready = start_worker(args, ["--trace"] if args.trace else [], running)
    setup, last = [ready], ""
    for line in proc.stdout:
        if line == "sample\n":
            sample, sample_ready = start_worker(args, ["--setup-only"], running)
            sample.communicate()
            if sample.returncode != 0:
                raise BenchError(f"set-up worker exited {sample.returncode}")
            setup.append(sample_ready)
            proc.stdin.write("go\n")
            proc.stdin.flush()
        else:
            last = line
    proc.wait()
    if proc.returncode != 0 or not last.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(last), setup


def on_signal(signum, frame):
    raise BenchError("run took longer than its deadline" if signum == signal.SIGALRM
                     else f"stopped by signal {signum}")


def end_to_end(report: dict, setup: list[float]) -> dict[str, float]:
    op_medians = [statistics.median(times) for times in report["op_s"].values()]
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(report["pass_s"]),
        "op_ms.gmean": math.exp(statistics.fmean(math.log(t) for t in op_medians)) * 1e3,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "recpoly", "__init__.py")):
        print(f"error: no src/recpoly under {ROOT}; run from a recpoly checkout", file=sys.stderr)
        return 2
    # Either signal unwinds through the finally below, which stops the workers.
    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.alarm(DEADLINE_S)
    running: list = []
    try:
        report, setup = measure(args, running)
    finally:
        signal.alarm(0)
        for proc in running:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    for reason in report["reasons"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={report['passes']} "
          f"attempted={report['attempted']} failed={report['failed']} setup_samples={len(setup)} "
          f"{'traced ' if args.trace else ''}pass_s={statistics.median(report['pass_s']):.4f}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = report["layers"] if args.trace else end_to_end(report, setup)
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:32s} {values[name]:14.6g} {unit}")
    print(json.dumps({"correct": report["wrong"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
