"""Per-layer spans recorded from outside the library.

A traced run replaces the public functions of each lielog module, plus the
dense kernels lielog calls through scipy and numpy, with wrappers that time
every call.  A function imported by name into another module is a second
binding that a patch of the defining module misses, so every module attribute
of lielog bound to the same function object is patched too.  ``Tracer.remove``
puts every original back.

A span's self time is its wall time minus the time of the traced calls made
inside it; the self times of all spans and the untraced remainder add up to
the wall time of the run.
"""

import sys
import time
from collections import defaultdict
from functools import wraps

import bench_env  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np
import scipy.linalg

from lielog import (
    automorphisms,
    cli,
    derivations,
    jsonio,
    logarithm,
    magnus,
    rational_linalg,
    spectral,
    tensor_algebra,
)

# jsonio's scalar codecs run once per matrix entry; they are timed inside the
# jsonio span that calls them rather than wrapped themselves.
JSONIO_FUNCTIONS = (
    "aut_from_json", "aut_to_json", "derivation_from_json", "derivation_to_json",
    "dumps", "endo_from_json", "endo_to_json", "expansion_from_json",
    "expansion_to_json", "liepoly_from_json", "liepoly_to_json", "matrix_from_json",
    "matrix_to_json", "report_to_json", "tensor_from_json", "tensor_to_json",
)

# span name -> (owner, attribute) pairs wrapped into that span
SPANS = {
    "automorphisms.to_matrix": [(automorphisms.GradedAut, "to_matrix")],
    "automorphisms.apply": [(automorphisms.GradedAut, "apply")],
    "automorphisms.compose": [(automorphisms.GradedAut, "compose")],
    "automorphisms.predicates": [
        (automorphisms.GradedAut, "is_hopf"),
        (automorphisms.GradedAut, "preserves_omega"),
    ],
    "automorphisms.transporter": [(automorphisms, "transporter")],
    "derivations.to_matrix": [(derivations.GradedDerivation, "to_matrix")],
    "derivations.apply": [(derivations.GradedDerivation, "apply")],
    "derivations.bracket": [(derivations.GradedDerivation, "bracket")],
    "derivations.exp_derivation": [(derivations, "exp_derivation")],
    "derivations.annihilates_omega": [(derivations, "annihilates_omega")],
    "tensor_algebra.mul": [(tensor_algebra, "mul")],
    "rational_linalg.inverse": [(rational_linalg, "inverse")],
    "logarithm.ln_aut": [(logarithm, "ln_aut")],
    "logarithm.log_unipotent": [(logarithm, "log_unipotent")],
    "logarithm.bch_series": [(logarithm, "bch_series")],
    "spectral.verdict": [(spectral, "eig_unit_circle_obstruction")],
    "spectral.principal_log": [(spectral, "principal_log")],
    "spectral.phi1_matrix": [(spectral, "phi1_matrix")],
    "magnus.total_johnson": [(magnus, "total_johnson")],
    "magnus.evaluate": [(magnus.MagnusExpansion, "evaluate")],
    "cli.main": [(cli, "main")],
    "jsonio": [(jsonio, name) for name in JSONIO_FUNCTIONS],
    "kernel.expm": [(scipy.linalg, "expm")],
    "kernel.eigvals": [(np.linalg, "eigvals")],
    "kernel.solve": [(np.linalg, "solve")],
}

VERDICTS = ("solvable", "not_solvable", "inconclusive")


def bindings():
    """(span, owner, attribute, original) for every binding a traced run wraps.

    Beyond the owners named in SPANS this lists every lielog module that
    imported the same function object by name.
    """
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "lielog"]
    out = []
    for span, targets in SPANS.items():
        for owner, attr in targets:
            original = owner.__dict__[attr]
            out.append((span, owner, attr, original))
            out.extend(
                (span, mod, attr, original)
                for mod in modules
                if mod is not owner and mod.__dict__.get(attr) is original
            )
    return out


class Tracer:
    """Aggregated spans: calls and self time per span name, plus a few counters.

    ``counters`` holds the expm work as computed sum of N^3 over expm calls and
    the verdicts returned by the solvability check.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, span, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        after = {"kernel.expm": self._count_expm, "spectral.verdict": self._count_verdict}.get(span)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in traced children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[span] += 1
                self_s[span] += elapsed - frame[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_expm(self, args, result):
        size = np.shape(args[0])[0]
        self.counters["kernel.expm.n3_sum"] += size**3

    def _count_verdict(self, args, result):
        self.counters[f"spectral.verdict.{result.verdict}"] += 1

    def install(self):
        """Wrap every binding listed by ``bindings()``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for span, owner, attr, original in bindings():
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(span, original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def remove(self):
        """Put back every original, last patched first."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
