"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lyapunov --seed 1 --seconds 20 --trace 0

Run it from the repository root: speclab is imported from ./src. The run
repeats whole rounds of the workload until --seconds have passed since its
first operation, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate between untraced and traced, and the metrics are the per-layer
ones, per round. --smoke runs the tiny sizes the benchmark's tests use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a two-CPU host whose CPUs are shared with other
# machines, two threads made the spectral workload's round time spread
# about twice as wide, because a threaded solve waits for its slower CPU.
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "symbols.eval.self_s": "s",
    "symbols.eval.points": "count",
    "symbols.eval.terms": "count",
    "symbols.modulus_symbol.self_s": "s",
    "cocycles.matrices.self_s": "s",
    "cocycles.matrices.count": "count",
    "cocycles.orbit_phases.self_s": "s",
    "cocycles.lyapunov.self_s": "s",
    "cocycles.lyapunov.steps": "count",
    "cocycles.rotation_sweep.self_s": "s",
    "cocycles.rotation_sweep.steps": "count",
    "operators.build.self_s": "s",
    "operators.eigensolve.self_s": "s",
    "operators.eigensolve.calls": "count",
    "operators.eigensolve.sites": "count",
    "operators.eigensolve.vector_mb": "MB",
    "operators.interior_indices.kept_ratio": "ratio",
    "operators.decay_rate.self_s": "s",
    "operators.decay_rate.fit_ratio": "ratio",
    "operators.ipr.self_s": "s",
    "operators.gordon_test.self_s": "s",
    "diophantine.expand.self_s": "s",
    "diophantine.check_theta.self_s": "s",
    "diophantine.check_theta.k_scanned": "count",
    "diophantine.dc_membership.self_s": "s",
    "diophantine.dc_membership.m_scanned": "count",
    "duality.lattice_bands.self_s": "s",
    "duality.duality_checks.self_s": "s",
    "reducibility.fit_conjugacy.self_s": "s",
    "reducibility.fit_conjugacy.svd_cells": "count",
    "reducibility.solve_cohomology.self_s": "s",
    "reducibility.dual_eigenvector_from_conjugacy.self_s": "s",
    "ehm.transition_experiment.self_s": "s",
    "cli.run.self_s": "s",
    "cli.write_json.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}
# per-layer values computed from two totals: numerator, denominator
RATIOS = {
    "operators.interior_indices.kept_ratio":
        ("operators.interior_indices.kept", "operators.interior_indices.states"),
    "operators.decay_rate.fit_ratio":
        ("operators.decay_rate.fits", "operators.decay_rate.attempts"),
}


def process_age() -> float:
    """Seconds since this process started, from /proc; 0 where that is
    not available."""
    try:
        with open("/proc/self/stat") as fh:
            start = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start / os.sysconf("SC_CLK_TCK"))


def machine_record() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"cpus": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def per_layer(tracer, setup: dict, traced: list, untraced: list,
              cpu: list) -> dict:
    """Per-round layer figures: the traced rounds' mean plus the set-up's
    share once, ratios from the summed counts."""
    total = tracer.snapshot()
    n = len(traced)
    val = {k: setup.get(k, 0.0) + (v - setup.get(k, 0.0)) / n
           for k, v in total.items()}
    for name, (num, den) in RATIOS.items():
        val[name] = total.get(num, 0.0) / total[den] if total.get(den) else 0.0
    val["process.cpu_s"] = statistics.median(cpu)
    # the first round pays the one-time warm-up; leave it out when others exist
    val["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(untraced[1:] or untraced))
    return {k: float(val.get(k, 0.0)) for k in PER_LAYER}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    age0 = process_age()
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "speclab", "__init__.py")):
        sys.stderr.write("error: src/speclab not found; run from the "
                         "repository root\n")
        return 2
    sys.path.insert(0, src)
    import speclab
    if not os.path.abspath(speclab.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: speclab imported from {speclab.__file__}\n")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose "
                         f"from {sorted(workloads.WORKLOADS)}\n")
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    runs_dir = os.path.join(HERE, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, cls.SIZES["smoke" if args.smoke else "full"],
                 work_dir)
        setup_s = age0 + (time.perf_counter() - t0)
        setup = {}
        if tracer:
            setup = tracer.snapshot()
            tracer.uninstall()

        times = {False: [], True: []}
        cpu = []
        attempted = failed = 0
        failures = {}
        first = None
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(times[False]) > len(times[True])
            if traced:
                tracer.install()
            rnd = workloads.Round()
            c0, r0 = time.process_time(), time.perf_counter()
            try:
                wl.round(rnd)
            except Exception:
                traceback.print_exc()
                failed += wl.ops - rnd.done
            dt, dc = time.perf_counter() - r0, time.process_time() - c0
            if traced:
                tracer.uninstall()
            else:
                cpu.append(dc)
            attempted += wl.ops
            times[traced].append(dt)
            first = first if first is not None else rnd.checks
            for name, ok, detail in rnd.checks:
                if not ok:
                    failures.setdefault(name, detail)
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is None or times[True])):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, ok, detail in first:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    for name, detail in failures.items():
        sys.stderr.write(f"check failed: {name} - {detail}\n")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    rounds = times[False] + times[True]
    print(f"rounds {len(rounds)}: " + " ".join(f"{t:.3f}" for t in rounds))

    if tracer:
        trace_path = os.path.join(
            runs_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        print(f"trace {os.path.relpath(trace_path)}")
        values = per_layer(tracer, setup, times[True], times[False], cpu)
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(times[False]),
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
