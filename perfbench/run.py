"""Benchmark of the tlonemax package: one workload per run, metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_short --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run repeats the workload's fixed set of public calls
for ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics instead (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()  # setup is timed from here: before numpy, scipy, tlonemax

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_short", "mc_long", "pop", "exact")
MIN_PASSES = 3
SETUP_SAMPLES = 5
PROBE_SEED = 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's setup time and exit (used for setup_s samples)")
    return p.parse_args(argv)


def _import_package():
    """Import tlonemax from this checkout's source tree and nowhere else."""
    src = ROOT / "src"
    if not (src / "tlonemax" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'tlonemax'}")
    # at most 2 BLAS threads, one per core of the reference box; set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "2"
    sys.path.insert(0, str(src))
    import tlonemax

    if Path(tlonemax.__file__).resolve().parent != src / "tlonemax":
        sys.exit(f"perfbench: imported tlonemax from {tlonemax.__file__}, not {src}")


def _blas() -> tuple[str, int | None]:
    """BLAS library name and its thread count, read from the loaded OpenBLAS."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads}


def _timed_passes(run_pass, seconds: float):
    """Repeat one pass for ``seconds`` (at least MIN_PASSES times): walls and results."""
    walls, results = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        results.append(run_pass())
        walls.append(time.perf_counter() - t0)
    return walls, results


def _check(wl, results) -> list[str]:
    problems = []
    for i, result in enumerate(results):
        problems += [f"pass {i}: {p}" for p in wl.check(result, results[0] if i else None)]
    return problems


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest pool worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_samples(args, count: int) -> list[float]:
    """Setup time of ``count`` fresh processes of this script, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _spread(values) -> str:
    if len(values) < 2:
        return f"median {statistics.median(values):.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, {len(values)} samples)"


def run_untraced(args, wl, setup_s):
    import workloads

    walls, results = _timed_passes(wl.run_pass, args.seconds)
    peak = _peak_rss_mb(workloads.WORKERS if wl.engine else 0)
    problems = _check(wl, results)
    setups = [setup_s] + _setup_samples(args, SETUP_SAMPLES - 1)
    wall = statistics.median(walls)
    print(f"# wall_s per pass: {_spread(walls)}")
    print(f"# setup_s: {_spread(setups)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": wl.ops_per_pass / wall,
        "peak_rss_mb": peak,
    }
    return metrics, results, problems


def run_traced(args, wl):
    import tracing
    import workloads

    half = args.seconds / 2
    untraced, results = _timed_passes(wl.run_pass, half)
    tracer = tracing.Tracer()

    def traced_pass():
        with tracer.span("bench.pass"):
            return wl.run_pass(tracer.span)

    with tracing.traced_linalg_solve(tracer):
        traced, traced_results = _timed_passes(traced_pass, half)
    results += traced_results
    problems = _check(wl, results)
    tracers = {args.workload: tracer}
    metrics = {"trace.overhead_s": statistics.median(traced) - statistics.median(untraced)}

    # layers this workload does not call are measured on a small fixed probe
    probes = []
    if wl.engine != "alg2":
        probes.append(("probe.alg2", workloads.pop(PROBE_SEED, n_values=(10,), trials=4)))
    if wl.engine != "alg1":
        probes.append(("probe.alg1", workloads.mc_short(PROBE_SEED, trials=2000)))
    if wl.engine is not None:
        probes.append(("probe.oracle", workloads.Exact(lumped_n=200, full_n=8, lemma2_n=50)))
    for source, probe in probes:
        probe_tracer = tracing.Tracer()
        tracers[source] = probe_tracer
        with probe_tracer.span("bench.pass"), tracing.traced_linalg_solve(probe_tracer):
            result = probe.run_pass(probe_tracer.span)
        found, more = tracing.layer_metrics(probe, result, probe_tracer)
        problems += [f"{source}: {p}" for p in probe.check(result, None) + more]
        metrics.update(found)
    found, more = tracing.layer_metrics(wl, traced_results[0], tracer)
    problems += more
    metrics.update(found)

    trace_path = ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
    tracing.write_spans(trace_path, tracers)
    print(f"# traced wall_s per pass: {_spread(traced)}; untraced: {_spread(untraced)}")
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return metrics, results, problems


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import workloads

    wl = workloads.BY_NAME[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    print("# machine " + json.dumps(machine_facts()))
    if args.trace:
        metrics, results, problems = run_traced(args, wl)
    else:
        metrics, results, problems = run_untraced(args, wl, setup_s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != declared.keys():
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}")
    attempted = len(results) * wl.ops_per_pass
    failed = attempted if problems else sum(wl.failed(r) for r in results)
    for p in problems:
        print(f"# FAILED CHECK {p}")
    print(f"# workload {args.workload} seed {args.seed}: {len(results)} passes, "
          f"failed_frac {failed / attempted:.6g}")
    for name, unit in declared.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
