"""The library names the benchmark's tracer wraps must all exist.

perfbench/tracer.py wraps lielog functions by name for its per-layer spans;
a name removed from the library would otherwise surface only as a KeyError
in a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_bindings_resolve():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    found = tracer.bindings()
    assert {span for span, *_ in found} == set(tracer.SPANS)
    assert all(callable(original) for *_, original in found)
