"""Every name the benchmark traces, and every name the package exports,
resolves.

The benchmark's tracer wraps package functions by module and qualified
name (`bench/tracer.py` SPANS), so a move or a rename that drops one of
them breaks the traced runs; here it fails `pytest` instead, naming it.
This module only reads `bench/`.
"""

import fvss
from bench import tracer


def test_every_traced_name_resolves():
    """originals() raises AttributeError or KeyError, naming it, for a
    traced name that no longer resolves."""
    assert tracer.originals()


def test_every_export_resolves():
    assert [name for name in fvss.__all__ if not hasattr(fvss, name)] == []
