"""nblw benchmark: one workload per process, checked outputs, one JSON line.

    python3 perfbench/run.py --workload synth-1e5 --seed 1 --seconds 24 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory and from nowhere else.  The run:

  1. imports the library and makes the workload's inputs; ``setup_s`` is
     the median of ``SETUP_REPS`` timings of a fresh interpreter that
     imports the library, plus the median of ``SETUP_REPS`` timings of
     making the inputs;
  2. runs whole rounds of the workload, at least two, until the timed work
     is within half a round of ``--seconds``; ``wall_s`` is the median of
     all but the first, which warms up.
     With ``--trace 1`` the rounds run under the tracer instead, and give
     the per-layer metrics;
  3. checks every round's outputs after its clock stops (the first round
     against the references, later ones against what the first round
     gave, where the references are costly), and self-tests the
     references those checks use;
  4. prints host information, any failed operation, and last one JSON line
     with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads():
    """Cap numpy's BLAS/OpenMP pools at the core count; must run before
    numpy is imported, and children inherit it."""
    cores = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def import_library():
    """Import nblw from ROOT/src only; the benchmark must not run against a
    copy installed elsewhere."""
    src = ROOT / "src"
    if not (src / "nblw" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {src}")
    sys.path.insert(0, str(src))
    import nblw

    if Path(nblw.__file__).resolve().parent != (src / "nblw").resolve():
        raise SystemExit(f"benchmark: nblw imported from {nblw.__file__}, not {src}")


def warm_memory(mib):
    """Touch and free ``mib`` MiB in a child process, just before timing.

    Guest memory that stays free for a few seconds is handed back to the
    host of the VM this benchmark was built on, and the first touch of it
    afterwards is slow: a workload's first round ran up to 1.7x slower when
    the machine had sat idle.  Doing that first touch here makes every run
    start from the same state, without raising this process's peak RSS.
    """
    subprocess.run([sys.executable, "-c", f"b'1' * ({int(mib)} << 20)"], check=True)


def import_seconds(reps):
    """Interpreter start and the library's imports, timed ``reps`` times in
    fresh child interpreters: this process's own start happens once, and
    one reading of it moves by a fifth from run to run."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import nblw"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def host_info(cores):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"host": {"nproc": cores, "cpu": cpu, "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "platform": platform.platform(),
                     "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}}


def run_rounds(workload, inputs, ops, seconds, make_tracer):
    """Whole rounds, at least two, until the timed work is within half a
    round of ``seconds``; each round is checked after its clock stops.

    The first round warms up: it is timed and checked like the others, but
    the metrics leave it out.  In most runs a process's first round took
    5-15 % longer than the median of its later ones.

    Returns the round times, the peak RSS after the first round (before any
    check allocates) and the tracers, one per round, if tracing.
    """
    walls, tracers, peak_mb, memo = [], [], None, {}
    while len(walls) < 2 or sum(walls) + walls[-1] / 2 < seconds:
        tracer = make_tracer() if make_tracer else contextlib.nullcontext()
        with tracer:
            t0 = time.perf_counter()
            out = workload.run(inputs, len(walls))
            walls.append(time.perf_counter() - t0)
        if make_tracer:
            tracers.append(tracer)
        if peak_mb is None:
            peak_mb = peak_rss_mb()
        workload.check(inputs, out, ops, memo)
        del out
    return walls, peak_mb, tracers


def main(argv=None):
    args = parse_args(argv)
    cores = cap_threads()
    import_library()
    import selftest
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    imports_s = import_seconds(SETUP_REPS)
    input_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        input_s.append(time.perf_counter() - t0)

    ops = workloads.Ops()
    warm_memory(workload.WARM_MIB)
    walls, peak_mb, tracers = run_rounds(workload, inputs, ops, args.seconds,
                                         tracing.Tracer if args.trace else None)

    problems = selftest.run()
    if problems:
        for line in problems:
            print("selftest FAIL:", line, file=sys.stderr)
        raise SystemExit("benchmark: the references failed their self-test; no result")

    print(json.dumps(host_info(cores)))
    print(json.dumps({"traced" if args.trace else "untraced": {
        "rounds_s": walls, "imports_s": imports_s, "inputs_s": input_s}}))
    for op in ops:
        for why in op.faults:
            print(f"FAILED (program fault) {op.name}: {why}")
        for why in op.errors:
            print(f"FAILED (check) {op.name}: {why}")

    if args.trace:
        rows = [t.layer_metrics() for t in tracers[1:]]
        metrics = {name: {"value": statistics.median(row[name] for row in rows),
                          "unit": UNITS[name]} for name in rows[0]}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump([t.dump() for t in tracers], fh)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[1:]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(imports_s) + statistics.median(input_s),
                        "unit": "s"},
        }
    result = {
        "correct": not any(op.errors for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


UNITS = {
    "model.sample_s": "s", "model.similarities_s": "s", "model.pairs": "count",
    "ingest.kernel_s": "s", "ingest.similarity_evals": "count", "ingest.rss_growth_mb": "MiB",
    "graph.build_s": "s", "graph.half_edges": "count", "graph.reweight_s": "s",
    "graph.pool_s": "s",
    "binary.init_s": "s", "binary.walk_s": "s", "binary.iter_ms": "ms",
    "binary.edge_updates_per_s": "1/s", "binary.decide_s": "s",
    "multiclass.walk_s": "s", "multiclass.kmeans_s": "s", "multiclass.operator_calls": "count",
    "label_prop.knn_s": "s", "label_prop.solve_s": "s", "label_prop.iterations": "count",
    "label_prop.unconverged": "count",
    "theory.de_s": "s", "theory.de_draws_per_s": "1/s", "theory.report_s": "s",
    "trace.overhead_s": "s",
}

if __name__ == "__main__":
    sys.exit(main())
