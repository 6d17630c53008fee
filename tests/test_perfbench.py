"""The benchmark's negative and positive controls, run against this library.

The benchmark reads the ring's term maps (its tracer counts terms and
pairs), so a change to the library that breaks the benchmark's checks or
its tracer fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_names_resolve():
    # The traced benchmark run wraps every function in tracer.SPANS and
    # tracer.COUNTED by name; a renamed or deleted one fails here.
    script = ("import sys; import recpoly; sys.path.insert(0, 'perfbench'); "
              "import tracer; tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", script],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
