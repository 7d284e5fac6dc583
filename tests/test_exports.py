"""Every name the benchmark traces, and every name the package exports,
resolves.

The benchmark's tracer wraps package functions by module and qualified
name (`bench/tracer.py` SPANS), so a move or a rename that drops one of
them breaks the traced runs; here it fails `pytest` instead, naming it.
This module only reads `bench/`.
"""

import os
import subprocess
import sys
from pathlib import Path

import fvss
from bench import tracer

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    """originals() raises AttributeError or KeyError, naming it, for a
    traced name that no longer resolves."""
    assert tracer.originals()


def test_every_traced_name_resolves_in_a_fresh_interpreter():
    """The same in a new process, as the CI step and every traced
    benchmark run call it: there only `import fvss.cli` has imported the
    package, so a traced module it stops importing fails here, where
    other test modules would have imported it into this process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."])}
    proc = subprocess.run([sys.executable, "-c", "from bench import tracer; tracer.originals()"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves():
    assert [name for name in fvss.__all__ if not hasattr(fvss, name)] == []
