"""Checks of the benchmark itself: oracle, fresh objects, tracer coverage.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the library's test collection; it takes about
half a minute.
"""

import pickle
import shutil
import subprocess
import sys
from fractions import Fraction

import bench_env  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np
import pytest
import scipy.linalg

import oracle
import run
import tracer
import workloads
from lielog import automorphisms, cli, derivations, logarithm, magnus
from lielog.automorphisms import GradedAut
from lielog.derivations import GradedDerivation

SEED = 11


@pytest.fixture(scope="module")
def pools():
    return {name: cls().make_pool(SEED) for name, cls in workloads.WORKLOADS.items()}


def first_of_kind(pool, kind):
    return next(case for case in pool if case["kind"] == kind)


# -- oracle ------------------------------------------------------------------------


def test_oracle_fails_a_float_block_perturbed_by_1e_6(pools):
    workload = workloads.GenericSpectrum()
    case = first_of_kind(pools["generic_spectrum"], "mixed")
    raw = workload.run(case)
    assert oracle.classify(case["truth"], workload.check(case, raw)).ok
    d = {m: blk.copy() for m, blk in raw["report"].derivation.d.items()}
    d[2][3, 1] += 1e-6
    residual = oracle.log_residual(4, 4, case["A"], case["u"], d, exact=False)
    assert not oracle.log_passes(residual, exact=False)
    outcome = oracle.Outcome("log", claimed_ok=True, residual=residual, passes=False)
    check = oracle.classify(oracle.SOLVABLE, outcome)
    assert not check.ok and check.silent_wrong


def test_oracle_fails_an_exact_block_perturbed_by_1e_6(pools):
    workload = workloads.IaExact()
    case = pools["ia_exact"][0]
    raw = workload.run(case)
    assert workload.check(case, raw).passes
    raw["bch"] = {m: blk.copy() for m, blk in raw["bch"].items()}
    raw["bch"][2][0, 0] += Fraction(1, 10**6)
    assert not workload.check(case, raw).passes


def test_oracle_fails_a_swapped_truth_label():
    log = oracle.Outcome("log", claimed_ok=True, residual=0.0, passes=True)
    rejected = oracle.Outcome("rejected", error="SolvabilityError/not_solvable")
    assert oracle.classify(oracle.SOLVABLE, log).ok
    assert oracle.classify(oracle.NOT_SOLVABLE, rejected).ok
    swapped_log = oracle.classify(oracle.NOT_SOLVABLE, log)
    assert not swapped_log.ok and swapped_log.silent_wrong
    assert not oracle.classify(oracle.SOLVABLE, rejected).ok


def test_mapping_class_truth_labels_follow_the_trace(pools):
    for case in pools["mapping_class"]:
        tr = case["trace"]
        mat = workloads.induced_matrix(case["endo"]["images"])
        assert tr == mat[0][0] + mat[1][1]
        expected = oracle.SOLVABLE if tr >= 2 else oracle.EITHER if tr < -2 else oracle.NOT_SOLVABLE
        assert case["truth"] == expected


def test_timed_mapping_class_words_have_small_entries(pools):
    for case in pools["mapping_class"]:
        if case["truth"] == oracle.SOLVABLE:
            mat = workloads.induced_matrix(case["endo"]["images"])
            assert case["trace"] in (3, 4)
            assert max(abs(x) for row in mat for x in row) <= workloads.MAX_TIMED_ENTRY


def test_generic_spectrum_respects_the_redraw_rule(pools):
    probes = workloads.GenericSpectrum().make_probes(SEED)
    for case in pools["generic_spectrum"] + probes:
        assert np.linalg.cond(case["A"]) <= workloads.GenericSpectrum.max_cond_a
        if case["truth"] == oracle.SOLVABLE:
            assert oracle.input_kernel_margin(case["A"], 4) >= 0.5 - 1e-6


def test_same_seed_gives_the_same_inputs():
    for cls in workloads.WORKLOADS.values():
        first, second = cls().make_pool(SEED), cls().make_pool(SEED)
        assert pickle.dumps(first) == pickle.dumps(second)
        assert pickle.dumps(first) != pickle.dumps(cls().make_pool(SEED + 1))
        assert pickle.dumps(cls().make_probes(SEED)) == pickle.dumps(cls().make_probes(SEED))


def test_probes_hold_only_probe_kinds():
    for cls in workloads.WORKLOADS.values():
        probes = cls().make_probes(SEED)
        assert [case["kind"] for case in probes] == list(cls.probe_pattern)
        assert not set(cls.probe_pattern) & set(cls.pattern)


# -- fresh objects -------------------------------------------------------------------


class InstanceLog:
    """Records, per operation, the GradedAut/GradedDerivation instances created
    and the instances whose cached images were read."""

    def __init__(self):
        self.created, self.used = [], []
        self.keep = []  # strong references, so that ids are never reused

    def start_op(self):
        self.created.append(set())
        self.used.append(set())

    def __enter__(self):
        self.saved = []
        for cls in (GradedAut, GradedDerivation):
            self._hook(cls, "__init__", self.created)
            self._hook(cls, "generator_images", self.used)
        self._hook(GradedAut, "_word_image", self.used)
        return self

    def _hook(self, cls, attr, sink):
        original = cls.__dict__[attr]
        log = self

        def hooked(obj, *args, **kwargs):
            if sink:
                sink[-1].add(id(obj))
                log.keep.append(obj)
            return original(obj, *args, **kwargs)

        self.saved.append((cls, attr, original))
        setattr(cls, attr, hooked)

    def __exit__(self, *exc):
        for cls, attr, original in reversed(self.saved):
            setattr(cls, attr, original)
        return False


@pytest.mark.parametrize(
    "name, kind",
    [("mapping_class", "hyperbolic_tr3"), ("generic_spectrum", "symplectic"), ("ia_exact", "ia_pair")],
)
def test_no_instance_is_shared_across_operations(pools, name, kind):
    workload = workloads.WORKLOADS[name]()
    case = first_of_kind(pools[name], kind)
    with InstanceLog() as log:
        for _ in range(2):
            log.start_op()
            workload.run(case)
    assert all(log.used)
    for created, used in zip(log.created, log.used):
        assert used <= created
    assert not log.created[0] & log.created[1]


# -- tracer ------------------------------------------------------------------------

# span -> workloads on which it must record calls.  ln_aut calls
# annihilates_omega only when Phi fixes omega; Johnson images for the exp
# expansion never do, so that span is checked on generic_spectrum alone.
SPAN_WORKLOADS = {
    "automorphisms.to_matrix": ["mapping_class"],
    "derivations.to_matrix": ["mapping_class"],
    "kernel.expm": ["generic_spectrum"],
    "kernel.eigvals": ["generic_spectrum"],
    "kernel.solve": ["generic_spectrum"],
    "spectral.phi1_matrix": ["generic_spectrum"],
    "spectral.principal_log": ["generic_spectrum"],
    "spectral.verdict": ["generic_spectrum", "mapping_class"],
    "tensor_algebra.mul": ["ia_exact"],
    "derivations.apply": ["ia_exact"],
    "derivations.bracket": ["ia_exact"],
    "automorphisms.apply": ["ia_exact"],
    "automorphisms.compose": ["ia_exact"],
    "rational_linalg.inverse": ["ia_exact"],
    "logarithm.log_unipotent": ["ia_exact"],
    "logarithm.bch_series": ["ia_exact"],
    "magnus.total_johnson": ["mapping_class"],
    "magnus.evaluate": ["mapping_class"],
    "automorphisms.transporter": ["mapping_class"],
    "cli.main": ["mapping_class"],
    "jsonio": ["mapping_class"],
    "logarithm.ln_aut": ["mapping_class", "generic_spectrum"],
    "automorphisms.predicates": ["mapping_class", "generic_spectrum"],
    "derivations.exp_derivation": ["mapping_class", "generic_spectrum"],
    "derivations.annihilates_omega": ["generic_spectrum"],
}
@pytest.fixture(scope="module")
def traced_counts(pools):
    """Spans over one pattern cycle of each pool, which holds every case kind."""
    counts = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        with tracer.Tracer() as spans:
            for case in pools[name][: len(cls.pattern)]:
                workload.run(case)
        counts[name] = (dict(spans.calls), dict(spans.counters))
    return counts


def test_span_table_matches_the_tracer():
    assert set(SPAN_WORKLOADS) == set(tracer.SPANS)


@pytest.mark.parametrize("span", sorted(SPAN_WORKLOADS))
def test_every_span_records_calls_on_its_workload(traced_counts, span):
    for name in SPAN_WORKLOADS[span]:
        assert traced_counts[name][0].get(span, 0) > 0, (span, name)


def test_counters_record_on_their_workloads(traced_counts):
    assert traced_counts["generic_spectrum"][1]["kernel.expm.n3_sum"] > 0
    verdicts = traced_counts["mapping_class"][1]
    for verdict in tracer.VERDICTS:
        assert verdicts[f"spectral.verdict.{verdict}"] > 0


def test_names_imported_into_other_modules_are_wrapped():
    # logarithm, spectral and derivations all call expm as scipy.linalg.expm
    expected = [
        (logarithm, "phi1_matrix"), (logarithm, "principal_log"),
        (logarithm, "eig_unit_circle_obstruction"), (logarithm, "exp_derivation"),
        (automorphisms, "mul"), (derivations, "mul"), (magnus, "mul"),
        (cli, "ln_aut"), (magnus, "transporter"), (scipy.linalg, "expm"),
    ]
    originals = [getattr(owner, attr) for owner, attr in expected]
    with tracer.Tracer():
        for (owner, attr), original in zip(expected, originals):
            assert getattr(owner, attr) is not original, (owner.__name__, attr)
    for (owner, attr), original in zip(expected, originals):
        assert getattr(owner, attr) is original


def test_untraced_run_sees_the_original_functions(pools):
    before = [(owner, attr, original) for _, owner, attr, original in tracer.bindings()]
    workload = workloads.IaExact()
    case = pools["ia_exact"][0]
    spans = tracer.Tracer()
    with spans:
        workload.run(case)
    recorded = dict(spans.calls)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
    workload.run(case)
    assert dict(spans.calls) == recorded


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_never_calls_a_traced_function(pools, name):
    workload = workloads.WORKLOADS[name]()
    case = pools[name][0]
    raw = workload.run(case)
    with tracer.Tracer() as spans:
        workload.check(case, raw)
        oracle.input_kernel_margin(workload.margin_input(case), workload.k)
    assert not any(spans.calls.values())


# -- runner ----------------------------------------------------------------------------


def test_percentile_counts_the_samples_beyond_it():
    values = list(range(1, 41))
    assert run.percentile(values, 75) == (30, 10)
    assert run.percentile(values + [float("inf")] * 2, 50) == (21, 21)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_min_passes_leave_ten_samples_beyond_the_tail(name):
    cls = workloads.WORKLOADS[name]
    ops = [float(i) for i in range(run.MIN_PASSES * len(cls.pattern))]
    assert run.percentile(ops, cls.tail_percentile)[1] >= 10


def test_failed_operations_count_as_infinitely_slow():
    ok = oracle.Check("log", ok=True, silent_wrong=False)
    bad = oracle.Check("log_unverified", ok=False, silent_wrong=False)
    ops = [run.Op(0, 1.0, 0.5, ok, None), run.Op(1, 1.0, 1.5, ok, None), run.Op(2, 1.0, 0.1, bad, None)]
    metrics, beyond = run.time_metrics(ops, 60, "scaled_s")
    assert metrics == {"ops_per_s": 1.0, "op_p50_s": 1.5, "op_tail_s": 1.5}
    assert beyond == 1


def test_scaled_interval_returns_the_result_and_both_times():
    result, wall, scaled = run.scaled_interval(lambda: sum(range(10**5)))
    assert result == sum(range(10**5))
    assert wall > 0 and scaled > 0


class CountingWorkload:
    def __init__(self):
        self.calls = []

    def run(self, case):
        self.calls.append(case)

    def check(self, case, raw):
        return oracle.Outcome("log", claimed_ok=True, residual=0.0, passes=True)


def test_closed_loop_runs_whole_passes():
    workload = CountingWorkload()
    pool = [{"truth": oracle.SOLVABLE}] * 3
    ops = run.closed_loop(workload, pool, seconds=0.0)
    assert [op.index for op in ops] == [0, 1, 2] * run.MIN_PASSES


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(bench_env.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ia_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seeds_cover_every_case_kind(pools):
    kinds = {name: {case["kind"] for case in pool} for name, pool in pools.items()}
    assert kinds["mapping_class"] == set(workloads.MappingClass.pattern)
    assert kinds["generic_spectrum"] == set(workloads.GenericSpectrum.pattern)
    assert all(case["truth"] == oracle.SOLVABLE for case in pools["ia_exact"])
