"""The library names the benchmark's tracer and self-test hooks must all exist.

perfbench/tracer.py wraps lielog functions by name for its per-layer spans,
and perfbench/selftest.py's InstanceLog patches constructors and image caches
through each class's own __dict__; a name removed or moved from the library
would otherwise surface only in a benchmark run.
"""

from lielog.automorphisms import GradedAut
from lielog.derivations import GradedDerivation

from util import import_perfbench


def test_tracer_bindings_resolve():
    tracer = import_perfbench("tracer")
    found = tracer.bindings()
    assert {span for span, *_ in found} == set(tracer.SPANS)
    assert all(callable(original) for *_, original in found)


def test_selftest_instance_log_hooks_resolve():
    selftest = import_perfbench("selftest")
    originals = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in [
            (GradedAut, "__init__"),
            (GradedAut, "generator_images"),
            (GradedAut, "_word_image"),
            (GradedDerivation, "__init__"),
            (GradedDerivation, "generator_images"),
        ]
    }
    with selftest.InstanceLog() as log:
        assert all(cls.__dict__[attr] is not fn for (cls, attr), fn in originals.items())
        log.start_op()
        phi = GradedAut.identity(2, 3)
        phi.generator_images()
        assert log.created[0] == log.used[0] == {id(phi)}
    assert all(cls.__dict__[attr] is fn for (cls, attr), fn in originals.items())
