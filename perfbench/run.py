#!/usr/bin/env python3
"""weakinfo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the library is imported from its `src/` directory,
never from an installed copy, and a checkout without `src/weakinfo` is an
error.  Workloads (see workloads.py) run as a closed loop: one caller, each
instance starting when the previous one has finished and been checked.

--trace 0 measures the end-to-end metrics.  A run goes through whole
cycles until it has both `--seconds` of timed work and at least
MIN_INSTANCES instances, so that ten instances lie beyond p90 (cli-runs
sets its own, lower minimum; see workloads.py).  Set-up
time is the median of SETUP_REPEATS fresh processes, each starting the
interpreter, importing weakinfo and running one warm-up instance.

Times are reference CPU seconds.  The shared hosts this runs on change
speed by 20-40% between runs and within them: other tenants take the CPU
away (wall time counts that, CPU time does not) and slow it down when they
run beside it (both count that), and the two vCPUs need not run at the same
speed.  So the benchmark pins itself and its children to one CPU, holds
BLAS to one thread, and times an instance in CPU seconds of this process
and its reaped children; on an otherwise idle machine that is the time the
one caller waits.  Before every instance (every third, for a process) and
after the last, it times a calibration of its own that never calls
weakinfo: `calibrate`, a kernel of interpreter loops, Fraction sums, small
numpy ops and small dense solves; `calibrate_dense`, the same with one large
solve, for the trinomial workload; or, for workloads whose instances are
processes and for set-up, `calibrate_process`, a fresh interpreter that
imports numpy and runs the dense kernel.  Every time in a run is scaled
by the calibration's reference time over its median near that time.  The
result is the time on a host that runs the calibration in its reference
time: host speed cancels, the program's own speed does not.  Raw CPU and
wall throughput are printed alongside.

--trace 1 runs each instance of a fixed number of cycles twice, without
spans and with the span tracer installed (tracing.py).
Per-layer metrics are totals over the traced pass; trace.overhead_ratio is
the traced over the untraced time of the same instances.

Human-readable lines (metrics with units, failure ratio, environment) go
first; the last line of stdout is the JSON result.  The exit code is 1 when
any instance fails its check, raises, or hits its time limit.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

# One BLAS thread: CPU time then equals the time a caller waits, and the
# pool's spinning workers add no noise.  Set before numpy is first imported;
# set-up probes and CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_INSTANCES = 100
SETUP_REPEATS = 5
INSTANCE_LIMIT_S = 60.0
DEADLINE_S = 150.0  # no new cycle starts after this much wall time
# Reference CPU times of the calibrations, roughly what they take on a
# 2-vCPU x86-64 host (Python 3.11, numpy 2.4): they only fix the scale.
REF_S = 0.004
REF_DENSE_S = 0.007
REF_PROCESS_S = 0.3
WINDOW = 6  # instances on either side whose calibrations scale an instance

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_s.p50", "s"),
    ("instance_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("utility.inverse_marginal.calls", "count"),
    ("utility.inverse_marginal.self_s", "s"),
    ("utility.inverse_marginal_prime.calls", "count"),
    ("utility.conjugate.calls", "count"),
    ("utility.conjugate.self_s", "s"),
    ("markets.transition_probabilities.calls", "count"),
    ("markets.transition_probabilities.self_s", "s"),
    ("markets.price_matrix.calls", "count"),
    ("markets.price_matrix.self_s", "s"),
    ("markets.validate_no_arbitrage.self_s", "s"),
    ("markets.complete_market_init.self_s", "s"),
    ("measures.minimal_measure.float_self_s", "s"),
    ("measures.minimal_measure.exact_self_s", "s"),
    ("measures.binomial_transition_formula.calls", "count"),
    ("measures.binomial_transition_formula.self_s", "s"),
    ("measures.radon_nikodym.self_s", "s"),
    ("measures.path_probability.calls", "count"),
    ("complete.solve.self_s", "s"),
    ("complete.solve_lambda.closed_self_s", "s"),
    ("complete.solve_lambda.bracket_self_s", "s"),
    ("complete.budget_map.calls", "count"),
    ("complete.optimal_wealth_process.self_s", "s"),
    ("complete.replicate_portfolio.self_s", "s"),
    ("complete.simulate_strategy.self_s", "s"),
    ("complete.sweep.self_s", "s"),
    ("complete.value_of_information.calls", "count"),
    ("complete.value_of_information.self_s", "s"),
    ("complete.solve_complete_market.self_s", "s"),
    ("complete.leaf_measure.self_s", "s"),
    ("trinomial.solve_lambda_system.self_s", "s"),
    ("trinomial.newton_iterations", "count"),
    ("trinomial.newton_s_per_iteration", "s"),
    ("trinomial.max_budget_residual", "wealth"),
    ("trinomial.trinomial_wealth_and_delta.self_s", "s"),
    ("trinomial.simulate_trinomial_strategy.self_s", "s"),
    ("trinomial.budget_residuals.self_s", "s"),
    ("trinomial.product_path_anticipation.self_s", "s"),
    ("trinomial.lift_terminal_anticipation.self_s", "s"),
    ("trinomial.replicable_ratio", "1"),
    ("cli.import_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.finish.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("cli.output_rows", "count"),
    ("trace.overhead_ratio", "1"),
)


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


_RNG = np.random.default_rng(20180809)
_SMALL = _RNG.standard_normal((96, 96)) + 96.0 * np.eye(96)
_MATRIX = _RNG.standard_normal((384, 384)) + 384.0 * np.eye(384)
_VECTOR = _RNG.standard_normal(384)


def calibrate(dense: bool = False) -> float:
    """CPU seconds of a fixed kernel that mixes the work weakinfo does."""
    start = cpu_seconds()
    total = 0
    for i in range(15000):
        total += (i * i) % 7
    harmonic = sum(Fraction(1, k) for k in range(1, 120))
    x = _VECTOR[:64]
    for _ in range(150):
        x = np.exp(_VECTOR[:64] * 0.01) * 2.0 + x.sum() * 1e-9
    if dense:
        x = np.linalg.solve(_MATRIX, _VECTOR)
    else:
        for _ in range(4):
            x = np.linalg.solve(_SMALL, _VECTOR[:96])
    assert total > 0 and harmonic > 5 and x.shape in ((96,), (384,))
    return cpu_seconds() - start


def calibrate_dense() -> float:
    """The kernel with a 1.2 MB dense solve, out of the fast caches.

    For the trinomial Newton systems: the plain kernel sped up 1.6x in the
    host's fast phases where they sped up 1.2x.  The 384 x 384 solve makes
    it follow them; it followed the binomial and M-state work less well.
    """
    return calibrate(dense=True)


def calibrate_process() -> float:
    """CPU seconds of a fresh interpreter that imports numpy and calibrates."""
    start = cpu_seconds()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--calibrate-probe"],
                   stdout=subprocess.DEVNULL, check=True, timeout=60, cwd=ROOT)
    return cpu_seconds() - start


# calibration: (reference time, instances per sample).  A process sample
# costs ~0.3 s, so it is taken before every third instance.
CALIBRATIONS = {calibrate: (REF_S, 1), calibrate_dense: (REF_DENSE_S, 1),
                calibrate_process: (REF_PROCESS_S, 3)}


def normalise(cpu: list, kernel: list, ref: float) -> list:
    """Scale CPU times to reference seconds.

    kernel holds (position, seconds) samples, position being the number of
    instances timed before the sample.  Instance i is scaled by ref over
    the median of the samples within WINDOW instances of it: single samples
    are too noisy to follow the host, while a whole run's median misses
    the drift within the run.
    """
    out = []
    for i, c in enumerate(cpu):
        near = [s for pos, s in kernel if i + 1 - WINDOW <= pos <= i + WINDOW]
        out.append(c * ref / statistics.median(near))
    return out


class Record:
    """One instance: its CPU and wall time and whether it passed.

    `seconds` is the reference time (see normalise); it equals `cpu` until
    the timed loop is over.
    """

    __slots__ = ("label", "cpu", "wall", "seconds", "ok", "reason", "stats")

    def __init__(self, label, cpu, wall, ok, reason=None, stats=None):
        self.label, self.cpu, self.wall, self.seconds = label, cpu, wall, cpu
        self.ok, self.reason, self.stats = ok, reason, stats or {}


def run_instance(workload, inst, wl) -> Record:
    """Time workload.run under the instance limit, then check it untimed."""
    wall, cpu = time.perf_counter(), cpu_seconds()

    def elapsed():
        return cpu_seconds() - cpu, time.perf_counter() - wall

    try:
        with wl.time_limit(INSTANCE_LIMIT_S):
            out = workload.run(inst)
    except wl.InstanceTimeout as exc:
        return Record(inst.label, *elapsed(), False, str(exc))
    except Exception as exc:  # a library error is a counted failure
        return Record(inst.label, *elapsed(), False, "raised %s: %s" % (type(exc).__name__, exc))
    times = elapsed()
    try:
        workload.check(inst, out)
    except wl.CheckFailure as exc:
        return Record(inst.label, *times, False, "check failed: %s" % exc, out.stats)
    except Exception:
        return Record(inst.label, *times, False,
                      "check raised: %s" % traceback.format_exc(limit=3), out.stats)
    return Record(inst.label, *times, True, None, out.stats)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args, nproc: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(workload, args, wl) -> int:
    """Child side of set-up timing: import, generate, one warm-up instance."""
    start = cpu_seconds()
    (inst,) = workload.instances(args.seed, 0, workload.WARMUP)
    gen_s = cpu_seconds() - start
    record = run_instance(workload, inst, wl)
    print(json.dumps({"gen_s": gen_s, "ok": record.ok, "reason": record.reason}))
    return 0 if record.ok else 1


def measure_setup(args) -> tuple[float, list]:
    """Median reference time of fresh set-up processes, minus input generation."""
    samples, kernel, failures = [], [(0, calibrate_process())], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        cpu = cpu_seconds() - start
        kernel.append((len(samples) + 1, calibrate_process()))
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {"ok": False, "reason": proc.stderr[-2000:], "gen_s": 0.0}
        if proc.returncode != 0 or not report["ok"]:
            failures.append("set-up probe failed: %s" % report["reason"])
        samples.append(cpu - report["gen_s"])
    return statistics.median(normalise(samples, kernel, REF_PROCESS_S)), failures


def min_instances(workload) -> int:
    return getattr(workload, "MIN_INSTANCES", MIN_INSTANCES)


def timed_loop(workload, args, wl, started: float) -> tuple[list, int]:
    """Whole cycles, a calibration before every instance and after the last."""
    kernel_fn = {wl.CliRuns: calibrate_process,
                 wl.TrinomialDual: calibrate_dense}.get(type(workload), calibrate)
    ref, every = CALIBRATIONS[kernel_fn]
    records, kernel, timed, cycle = [], [], 0.0, 0
    while timed < args.seconds or len(records) < min_instances(workload):
        if time.monotonic() - started > DEADLINE_S:
            break
        for inst in workload.instances(args.seed, cycle):
            if len(records) % every == 0:
                kernel.append((len(records), kernel_fn()))
            records.append(run_instance(workload, inst, wl))
            timed += records[-1].cpu
        cycle += 1
    kernel.append((len(records), kernel_fn()))
    normal = normalise([r.cpu for r in records], kernel, ref)
    for record, seconds in zip(records, normal):
        record.seconds = seconds
    return records, cycle, statistics.median(s for _, s in kernel)


def end_to_end(records, setup_s, is_cli) -> dict:
    latencies = [r.seconds for r in records]
    if is_cli:
        peak_kb = max(r.stats.get("child_maxrss_kb", 0) for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "instances_per_s": len(latencies) / sum(latencies),
        "instance_s.p50": statistics.median(latencies),
        "instance_s.p90": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer_runs, plain, traced, tracing) -> dict:
    """Per-layer metrics from span trees and instance stats of the traced pass."""
    totals = tracing.SpanTotals()
    import_s = []
    for run in tracer_runs:
        totals.add(run["spans"], run["counts"])
        if "import_s" in run:
            import_s.append(run["import_s"])
    stats = [r.stats for r in traced]

    def total(key):
        return sum(s.get(key, 0) for s in stats)

    iterations = total("newton_iterations")
    claims = total("claims")
    derived = {
        "trinomial.newton_iterations": float(iterations),
        "trinomial.newton_s_per_iteration":
            totals.total_s.get("trinomial.solve_lambda_system", 0.0) / iterations if iterations else 0.0,
        "trinomial.max_budget_residual":
            max((abs(s["max_budget_residual"]) for s in stats if "max_budget_residual" in s), default=0.0),
        "trinomial.replicable_ratio": total("replicable") / claims if claims else 0.0,
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.output_bytes": float(total("output_bytes")),
        "cli.output_rows": float(total("output_rows")),
        "trace.overhead_ratio": sum(r.seconds for r in traced) / sum(r.seconds for r in plain),
    }
    return {name: derived[name] if name in derived else totals.metric(name)
            for name, _ in PER_LAYER}


def traced_run(workload, args, wl, work: Path):
    """Run each instance untraced and traced, alternating which goes first.

    Pairing the two runs of an instance, in alternating order, keeps
    first-run costs and drifts in machine speed out of the overhead ratio.
    """
    import weakinfo
    import tracing

    instances = [inst for cycle in range(workload.TRACE_CYCLES)
                 for inst in workload.instances(args.seed, cycle)]
    tracer = tracing.Tracer()
    is_cli = isinstance(workload, wl.CliRuns)
    spans_dir = work / "spans"
    spans_dir.mkdir()

    def traced_instance(inst):
        if is_cli:  # each CLI child traces itself
            workload.trace_dir = spans_dir
            try:
                return run_instance(workload, inst, wl)
            finally:
                workload.trace_dir = None
        tracer.install(weakinfo)
        try:
            return run_instance(workload, inst, wl)
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for i, inst in enumerate(instances):
        if i % 2:
            traced.append(traced_instance(inst))
            plain.append(run_instance(workload, inst, wl))
        else:
            plain.append(run_instance(workload, inst, wl))
            traced.append(traced_instance(inst))
    runs = [{"spans": tracer.spans, "counts": tracer.counts}]
    if is_cli:
        runs = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))]
    trace_file = WORK / ("trace-%s-%d.json" % (args.workload, args.seed))
    trace_file.write_text(json.dumps(runs))
    return plain + traced, per_layer(runs, plain, traced, tracing)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "weakinfo" / "__init__.py").is_file():
        print("perfbench: no weakinfo sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weakinfo

    if Path(weakinfo.__file__).resolve().parent != SRC / "weakinfo":
        print("perfbench: imported weakinfo from %s, not from %s" % (weakinfo.__file__, SRC),
              file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        names = list(wl.WORKLOADS)
        workload = wl.WORKLOADS[args.workload](names.index(args.workload), ROOT, work, nproc)
        if args.setup_probe:
            return setup_probe(workload, args, wl)
        return measure(workload, args, wl, work, nproc, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, wl, work, nproc, started) -> int:
    env = environment(args, nproc)
    failures = []
    for _ in range(3):  # first calls pay for numpy's lazy set-up
        calibrate()
        calibrate_dense()
    if not args.trace:
        setup_s, failures = measure_setup(args)
    (warmup,) = workload.instances(args.seed, 0, workload.WARMUP)
    warm = run_instance(workload, warmup, wl)
    if not warm.ok:
        failures.append("warm-up %s: %s" % (warm.label, warm.reason))
    if args.trace:
        units = dict(PER_LAYER)
        records, metrics = traced_run(workload, args, wl, work)
    else:
        units = dict(END_TO_END)
        records, cycles, env["kernel_s"] = timed_loop(workload, args, wl, started)
        env["cycles"] = cycles
        metrics = end_to_end(records, setup_s, isinstance(workload, wl.CliRuns))
        if len(records) < min_instances(workload):
            failures.append("deadline reached after %d instances" % len(records))
    failed = [r for r in records if not r.ok]
    failures += ["%s: %s" % (r.label, r.reason) for r in failed]
    env["instances"] = {"attempted": len(records), "failed": len(failed),
                        "by_kind": dict(Counter(r.label.split(" ")[0] for r in records))}

    print("# perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("# env %s" % json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print("# %-46s %.6g %s" % (name, value, units[name]))
    if not args.trace:
        beyond = sum(1 for r in records if r.seconds > metrics["instance_s.p90"])
        print("# %-46s %d instances, %d beyond p90" % ("latency samples", len(records), beyond))
        for clock in ("cpu", "wall"):
            spent = sum(getattr(r, clock) for r in records)
            print("# %-46s %.6g 1/s (not normalised)"
                  % ("instances_per_s by %s time" % clock, len(records) / spent))
    print("# %-46s %.6g 1 (%d failed of %d attempted)"
          % ("failed_ratio", len(failed) / max(1, len(records)), len(failed), len(records)))
    for line in failures:
        print("# FAILED %s" % line)
        print("perfbench: FAILED %s" % line, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (WORK / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps({"env": env, "failures": failures, **result,
                    "latencies": [[r.label, r.seconds] for r in records]}, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--calibrate-probe"]:  # the child of calibrate_process
        for _ in range(3):
            calibrate_dense()
        sys.exit(0)
    sys.exit(main())
