"""lielog benchmark: closed-loop workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is mapping_class, generic_spectrum or ia_exact, or ``all`` to run each of
them in its own process and print one table.  One caller runs operations back
to back, each starting after the previous one returned, in whole passes over a
pool of inputs drawn from the seed: at least MIN_PASSES passes, and more while
the next pass still ends within S seconds of operation time.  Every output is
checked by the oracle in oracle.py after the clock stops.

Times are reported at a reference machine speed.  The speed of a shared host
drifts by up to a factor of two over seconds to minutes, as other tenants load
it, and that drift would swamp any change to lielog.  So a fixed calibration
kernel (Calibration) runs right before and right after every timed interval,
and the interval's wall time is multiplied by REFERENCE_CALIBRATION_S over the
mean of the two calibration times: a slow phase slows the kernel too and is
divided out.  The kernel never calls lielog, so a change to lielog moves only
the interval.  The run record keeps the unscaled wall times.

--trace 0 prints the end-to-end metrics, all at reference speed: ops_per_s
(correct operations over their summed times), op_p50_s and op_tail_s (median
and the workload's tail percentile over every operation; a failed operation
counts as +inf), peak_rss_mb (the process's peak resident size) and setup_s
(the median of fresh ``python -m lielog.cli`` launches).

--trace 1 runs each pool input twice in a row, untraced and then with every
lielog layer wrapped (tracer.py), in whole passes until the pairs add up to
S/2 seconds, and prints per-layer metrics per traced operation.  It then runs
the workload's probe inputs once, untimed: these hit known defects, and
probe.failed counts them.

The last line of stdout is the JSON result.  "failed" counts timed operations
whose outcome disagrees with the truth label or whose output fails the oracle;
"correct" is false when a timed operation failed or any output, probes
included, was a wrong result presented as right.  The line before it is the
run record: seed, versions, thread settings and the outcome of every kind over
the first pass and the probes, which repeats exactly for a seed.
"""

import bench_env  # first: pins BLAS threads before numpy loads

import argparse
import functools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracle

HOLDOUT_SEED = 2202_11273  # reserved for confirming a claimed gain; never tune on it
SETUP_LAUNCHES = 7
SETUP_COMMAND = ["-m", "lielog.cli", "bases", "--n", "2", "--k", "3"]
MEMORY_CASES = 4  # first pool cases measured under tracemalloc; they span the costly kinds
# Four passes leave at least ten operations beyond each workload's tail percentile.
MIN_PASSES = 4
# The calibration kernel's time on an idle 2-vCPU x86-64 host: the speed that
# scaled times refer to.  Fixed, so that scaled times compare across commits.
REFERENCE_CALIBRATION_S = 0.010
WORKLOAD_NAMES = ("mapping_class", "generic_spectrum", "ia_exact")


class Calibration:
    """Inputs of the calibration kernel, built once per process.

    The table has 64k entries (about 6 MB, part of peak_rss_mb), larger than
    the caches a neighbour's load contends for.
    """

    def __init__(self):
        rng = random.Random(0)
        self.table = {rng.getrandbits(40): i for i in range(1 << 16)}
        self.keys = rng.sample(sorted(self.table), 4000)
        self.fractions = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(400)]
        self.matrix = np.random.default_rng(0).normal(size=(96, 96)) * (1 + 1j)

    def __call__(self):
        """Wall time of a fixed kernel of the kinds of work lielog does, in four
        parts of about 2.5 ms each on an idle host: an integer loop, lookups
        scattered over a large dict, Fraction arithmetic and a chain of small
        complex matrix products."""
        start = time.perf_counter()
        total = 0
        for i in range(35_000):
            total += i * i % 7
        for key in self.keys:
            total += self.table[key]
        acc = Fraction(0)
        for frac in self.fractions:
            acc += frac * frac
        mat = self.matrix
        for _ in range(12):
            mat = (mat @ self.matrix) * 0.01
        return time.perf_counter() - start


@functools.cache
def _calibration():
    return Calibration()


def calibration_s():
    """One timing of the calibration kernel; its inputs are built on first use."""
    return _calibration()()


def scaled_interval(fn):
    """Run fn() between two calibrations; returns (result, wall s, scaled s)."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = calibration_s()
    return result, wall, wall * REFERENCE_CALIBRATION_S * 2 / (before + after)


def percentile(values, pct):
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    head = bench_env.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = bench_env.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = bench_env.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def measure_setup():
    """Scaled times of fresh interpreters running a trivial CLI command.

    The first launch is discarded: it may compile bytecode that every later
    launch, like a user's second call, reads from the cache.
    """
    times = []
    for attempt in range(SETUP_LAUNCHES + 1):
        proc, _, scaled = scaled_interval(
            lambda: subprocess.run(
                [sys.executable, *SETUP_COMMAND],
                cwd=bench_env.ROOT,
                env=bench_env.child_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
        )
        if proc.returncode != 0 or json.loads(proc.stdout)["counts"] != {"1": 2, "2": 1}:
            raise RuntimeError(f"set-up command failed: {proc.stderr.strip()}")
        if attempt:
            times.append(scaled)
    return times


@dataclass
class Op:
    """One timed operation: its pool index, wall and scaled seconds, and checks."""

    index: int
    wall_s: float
    scaled_s: float
    check: oracle.Check
    outcome: oracle.Outcome


def timed_op(workload, pool, index):
    """Run one operation on pool[index].  Only workload.run is timed; the
    oracle runs after the clock stops."""
    case = pool[index]
    raw, wall, scaled = scaled_interval(lambda: workload.run(case))
    outcome = workload.check(case, raw)
    return Op(index, wall, scaled, oracle.classify(case["truth"], outcome), outcome)


def closed_loop(workload, pool, seconds):
    """Whole passes over the pool in pool order: at least MIN_PASSES, and more
    while a pass as long as the last one still ends within `seconds` of
    operation wall time."""
    ops, spent, last = [], 0.0, 0.0
    while len(ops) < MIN_PASSES * len(pool) or spent + last <= seconds:
        before = spent
        for index in range(len(pool)):
            ops.append(timed_op(workload, pool, index))
            spent += ops[-1].wall_s
        last = spent - before
    return ops


def run_probes(workload, probes):
    """Each probe input once, untimed; counts of its outcomes by kind."""
    checks = [timed_op(workload, probes, index).check for index in range(len(probes))]
    return checks, {
        "kinds": dict(sorted(Counter(f"{case['kind']}:{check.kind}" for case, check in zip(probes, checks)).items())),
        "attempted": len(checks),
        "failed": sum(not check.ok for check in checks),
    }


def outcome_summary(workload, pool, ops):
    """Counts over the first pass, one operation per pool case: exact per seed."""
    first = ops[: len(pool)]
    checks = [op.check for op in first]
    either = [op.check for op in first if pool[op.index]["truth"] == oracle.EITHER]
    residuals = [op.outcome.residual for op in first if op.outcome.residual is not None]
    margins = [
        oracle.input_kernel_margin(workload.margin_input(case), workload.k)
        for case in pool
        if case["truth"] == oracle.SOLVABLE
    ]
    return {
        "kinds": dict(sorted(Counter(check.kind for check in checks).items())),
        "ok": sum(check.ok for check in checks),
        "failed": sum(not check.ok for check in checks),
        "either_log": sum(check.kind == "log" for check in either),
        "either_rejected": sum(check.kind.startswith("rejected") for check in either),
        "kernel_singular": sum(check.kind.startswith("rejected:KernelSingular") for check in checks),
        "residual_max": max(residuals, default=0.0),
        "kernel_margin_min": min(margins),
    }


def run_record(args, ops, summary, extra):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "operations": len(ops),
        "first_pass": summary,
        **extra,
    }


def time_metrics(ops, pct, field):
    """ops_per_s, op_p50_s and op_tail_s from the `field` seconds of each operation."""
    times = [getattr(op, field) if op.check.ok else math.inf for op in ops]
    finite = [t for t in times if t < math.inf]
    tail, beyond = percentile(times, pct)
    return {
        "ops_per_s": len(finite) / sum(finite) if finite else 0.0,
        "op_p50_s": percentile(times, 50)[0],
        "op_tail_s": tail,
    }, beyond


def end_to_end(args, workload, pool):
    setup_times = measure_setup()
    timed_op(workload, pool, 0)  # warm-up: lazy imports and per-(n, k) tables
    ops = closed_loop(workload, pool, args.seconds)
    summary = outcome_summary(workload, pool, ops)
    pct = workload.tail_percentile
    scaled, beyond = time_metrics(ops, pct, "scaled_s")
    wall, _ = time_metrics(ops, pct, "wall_s")
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_s": (scaled["op_p50_s"], "s"),
        "op_tail_s": (scaled["op_tail_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    extra = {
        "passes": len(ops) // len(pool),
        "tail_percentile": pct,
        "samples_beyond_tail": beyond,
        "fail_rate": sum(not op.check.ok for op in ops) / len(ops),
        "wall": wall,
        "speed_vs_reference": statistics.median(op.scaled_s / op.wall_s for op in ops),
        "setup_launch_scaled_s": setup_times,
    }
    return ops, summary, [], metrics, extra


def traced(args, workload, pool):
    """Each pool case runs twice in a row, untraced then traced, in whole
    passes until the pairs add up to half of `seconds`; then the first
    MEMORY_CASES cases run under tracemalloc, and the probes run once.  The
    pairing keeps machine drift out of the overhead ratio."""
    import tracer

    timed_op(workload, pool, 0)
    spans = tracer.Tracer()
    untraced, traced_ops, untraced_s, traced_s = [], [], 0.0, 0.0
    while untraced_s + traced_s < args.seconds / 2 or len(traced_ops) % len(pool):
        index = len(traced_ops) % len(pool)
        untraced.append(timed_op(workload, pool, index))
        untraced_s += untraced[-1].scaled_s
        with spans:
            traced_ops.append(timed_op(workload, pool, index))
        traced_s += traced_ops[-1].scaled_s
    summary = outcome_summary(workload, pool, untraced)
    count = len(traced_ops)

    tracemalloc.start()
    peak = 0
    for case in pool[:MEMORY_CASES]:
        tracemalloc.reset_peak()
        workload.run(case)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    probe_checks, probes = run_probes(workload, workload.make_probes(args.seed))

    metrics = {}
    for span in tracer.SPANS:
        metrics[f"{span}.calls"] = (spans.calls[span] / count, "count/op")
        metrics[f"{span}.self_s"] = (spans.self_s[span] / count, "s/op")
    metrics["kernel.expm.n3_sum"] = (spans.counters["kernel.expm.n3_sum"] / count, "count/op")
    for verdict in tracer.VERDICTS:
        name = f"spectral.verdict.{verdict}"
        metrics[name] = (spans.counters[name] / count, "count/op")
    for key in ("ok", "failed", "either_log", "either_rejected"):
        metrics[f"outcome.{key}"] = (summary[key], "count/pass")
    metrics["logarithm.kernel_singular"] = (summary["kernel_singular"], "count/pass")
    metrics["logarithm.kernel_margin_min"] = (summary["kernel_margin_min"], "abs")
    metrics["logarithm.residual_max"] = (summary["residual_max"], "abs")
    metrics["probe.attempted"] = (probes["attempted"], "count")
    metrics["probe.failed"] = (probes["failed"], "count")
    metrics["memory.traced_peak_mb"] = (peak / 2**20, "MB")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return untraced + traced_ops, summary, probe_checks, metrics, {"traced_operations": count, "probes": probes}


def run_one(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    pool = workload.make_pool(args.seed)
    body = traced if args.trace else end_to_end
    ops, summary, probe_checks, metrics, extra = body(args, workload, pool)
    print(json.dumps({"record": run_record(args, ops, summary, extra)}))
    failed = sum(not op.check.ok for op in ops)
    silent_wrong = any(check.silent_wrong for check in [op.check for op in ops] + probe_checks)
    result = {
        "correct": not failed and not silent_wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process (so peak_rss_mb is its own), one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        rate = result["failed"] / result["attempted"]
        print(f"{name:18} {'fail_rate':32} {rate:12.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"{name:18} {metric:32} {entry['value']:12.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bench_env.source_present():
        print(f"error: no lielog sources under {bench_env.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
