"""One benchmark process: set up a workload, then run whole passes over it.

Started by run.py with ``PYTHONPATH=src`` from the root of the checkout.
It prints ``ready`` once its set-up (interpreter, ``import recpoly``, specs
and reference values) is done, then, unless ``--setup-only``, runs passes
until ``--seconds`` have elapsed and prints one JSON line of raw timings,
counts and check results.  Checks run after each pass, outside the timed
region.  Between passes it may print ``sample`` and wait for a line on
standard input while run.py times a set-up-only worker.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads

OUT_DIR = os.path.join("perfbench", "out")
PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter_ns(); import recpoly.cli; "
                "print(time.perf_counter_ns() - t)")
MAX_REASONS = 5
# Set-up samples the measuring worker asks run.py for, spread over the run.
SETUP_SAMPLES = 8


def build(rp, workload: str, seed: int, trace: bool):
    rng = random.Random(seed)
    if workload != "cli":
        return getattr(workloads, workload)(rp, rng), None
    env = dict(os.environ, PYTHONPATH="src")
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        summaries = os.path.join(OUT_DIR, f"cli-trace-seed{seed}.jsonl")
        if os.path.exists(summaries):
            os.remove(summaries)
        prefix = [sys.executable, os.path.join("perfbench", "traced_cli.py"), summaries]
    else:
        summaries = None
        prefix = [sys.executable, "-m", "recpoly.cli"]
    return workloads.cli(rp, rng, prefix, os.getcwd(), env), summaries


def run_passes(ops, seed: int, seconds: float, tracer=None, between_passes=None):
    """Whole passes over ``ops`` (order shuffled per pass) until ``seconds``;
    ``between_passes()`` runs after every pass but the last."""
    order_rng = random.Random(f"order-{seed}")
    op_s = {op.name: [] for op in ops}
    pass_s, reasons = [], []
    attempted = failed = wrong = 0
    began = time.perf_counter()
    while True:
        order = list(ops)
        order_rng.shuffle(order)
        results = []
        if tracer is not None:
            tracer.begin_pass()
        t_pass = time.perf_counter()
        for op in order:
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
            op_s[op.name].append(time.perf_counter() - t0)
            results.append((op, result, error))
        pass_s.append(time.perf_counter() - t_pass)
        if tracer is not None:
            tracer.end_pass()
        for op, result, error in results:
            attempted += 1
            problem = None
            if error is None:
                try:
                    problem = op.check(result)
                except Exception as exc:  # a result the check cannot read is wrong
                    problem = f"check raised {type(exc).__name__}: {exc}"
                wrong += problem is not None
            if error or problem:
                failed += 1
                if len(reasons) < MAX_REASONS:
                    reasons.append(f"{op.name}: {error or problem}")
        if time.perf_counter() - began >= seconds:
            break
        if between_passes is not None:
            between_passes()
    return {"passes": len(pass_s), "attempted": attempted, "failed": failed, "wrong": wrong,
            "pass_s": pass_s, "op_s": op_s, "reasons": reasons}


def setup_sampler(seconds: float):
    """Ask run.py for a set-up sample at most every ``seconds / SETUP_SAMPLES``
    and wait while it is taken."""
    last = time.perf_counter()

    def maybe_sample() -> None:
        nonlocal last
        if time.perf_counter() - last >= seconds / SETUP_SAMPLES:
            print("sample", flush=True)
            sys.stdin.readline()
            last = time.perf_counter()

    return maybe_sample


def probe_ms(args: list[str], env: dict) -> float:
    """Median wall time of fresh processes, from spawn to exit."""
    samples = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(args, env=env, check=True, capture_output=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def import_ms(env: dict) -> float:
    """Median time of ``import recpoly.cli`` in fresh processes."""
    samples = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(int(out.stdout) / 1e6)
    return statistics.median(samples)


def trace_layers(tracer, summaries_path, passes: int, workload: str, seed: int) -> dict:
    import tracer as tracing

    if summaries_path:
        # cli: each traced child process reported its own totals.
        with open(summaries_path) as f:
            children = [json.loads(line) for line in f]
        summary = tracing.merge(children)
        command_ms = sum(c["command_ns"] for c in children) / 1e6 / passes
    else:
        summary = tracer.summary()
        command_ms = 0.0
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json.gz"))
    layers = tracing.layer_metrics(summary, passes)
    env = dict(os.environ, PYTHONPATH="src")
    layers["cli.interp_ms"] = probe_ms([sys.executable, "-c", "pass"], env)
    layers["cli.import_ms"] = import_ms(env)
    layers["cli.command_ms"] = command_ms
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import recpoly as rp

    ops, summaries = build(rp, args.workload, args.seed, args.trace)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace and args.workload != "cli":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    sampler = None if args.trace else setup_sampler(args.seconds)
    report = run_passes(ops, args.seed, args.seconds, tracer, sampler)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    report["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    if args.trace:
        report["layers"] = trace_layers(tracer, summaries, report["passes"], args.workload,
                                        args.seed)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
