#!/usr/bin/env python3
"""gsp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload stokes48-craig --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports ``src/gsp`` from that
checkout and nothing else. ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is a separate run that records spans around each
gsp module and reports the per-layer metrics. Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Definitions, workload choices and
known defects are in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# BLAS runs on one thread. On a 2-vCPU host whose vCPUs slow down
# independently of each other, a two-thread factorization waits for the slower
# one: over 10 runs of stokes48-craig, one thread cut the spread of setup_s
# from 11-17% to 4% of its median. It must be set before numpy is imported.
BLAS_THREADS = "1"

# One cold setup runs first and is reported on its own; setup_s is the median
# of the warm setups after it, so every commit is measured the same way.
WARM_SETUPS = 4
MIN_SOLVES = 3

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

KERNEL_FIELDS = {"calls_per_iter": "calls/iter", "busy_s": "s", "us_per_call": "us"}
COMPUTED_FIELDS = {"flops_per_call": "flop", "bytes_per_call": "B"}


def per_layer_units():
    from tracing import MATRIX_KERNELS, PRECOND_KERNELS

    units = {}
    for k in MATRIX_KERNELS:
        for field, unit in {**KERNEL_FIELDS, **COMPUTED_FIELDS}.items():
            units[f"linops.{k}.{field}"] = unit
    for k in PRECOND_KERNELS:
        for field, unit in KERNEL_FIELDS.items():
            units[f"linops.{k}.{field}"] = unit
    units.update({
        "linops.factorize.busy_s": "s",
        "linops.to_dense.calls": "count",
        "linops.to_dense.busy_s": "s",
        "linops.from_dense.busy_s": "s",
        "system.validate.busy_s": "s",
        "problems.generate.self_s": "s",
        "mmio.load.self_s": "s",
        "mmio.bytes_read": "B",
        "nscraig.self_s": "s",
        "nscraig.iter_ms.first_decile": "ms",
        "nscraig.iter_ms.last_decile": "ms",
        "nscraig.assemble_solution.busy_s": "s",
        "craig.self_s": "s",
        "craig.self_ms_per_iter": "ms",
        "cli.report.busy_s": "s",
        "trace.overhead_frac": "frac",
    })
    return units


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(problem):
    """Library versions, BLAS threads in effect, cores, L3 and largest operand."""
    import ctypes
    import glob

    import numpy
    import scipy

    env = {"numpy": numpy.__version__, "scipy": scipy.__version__,
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    # numpy and scipy wheels each bundle their own OpenBLAS with its own pool.
    for mod, tag in ((numpy, "numpy"), (scipy, "scipy")):
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), f"{tag}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads and get_config:
                    get_config.restype = ctypes.c_char_p
                    env[f"{tag}_blas"] = get_config().decode()
                    env[f"{tag}_blas_threads"] = get_threads()
                    break
    try:  # read-only; absent on some hosts
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            env["l3"] = fh.read().strip()
    except OSError:
        env["l3"] = "unknown"
    s = problem.system
    operands = {"M_factor": 8 * s.m * s.m,
                "Mmat_csr": 24 * s.Mmat.nnz, "A_csr": 24 * s.A.nnz, "C_csr": 24 * s.C.nnz}
    largest = max(operands, key=operands.get)
    env["largest_operand"] = f"{largest} {operands[largest] / 1e6:.1f} MB"
    env["setup_s"] = (f"warm: median of {WARM_SETUPS} setups after one cold setup "
                      "in the same process")
    return env


def kernel_cost(problem, kernel):
    """Computed flops and bytes of one kernel call, from shapes and nnz.

    A dense triangular solve reads one triangle of the m x m factor; M_solve
    does two. A CSR matvec reads, per stored entry, its value, column index,
    row index and the gathered x entry (the bincount kernel in gsp.linops),
    plus the output vector.
    """
    s = problem.system
    if kernel == "M_solve":
        return 2 * s.m * s.m, 8 * s.m * (s.m + 1) + 16 * s.m
    mat = {"Mmat_matvec": s.Mmat, "A_matvec": s.A, "A_rmatvec": s.A, "C_matvec": s.C}[kernel]
    out = mat.rows if kernel != "A_rmatvec" else mat.cols
    return 2 * mat.nnz, 32 * mat.nnz + 8 * out


def iter_ms_deciles(result):
    """Median per-iteration wall time of the first and last tenth of a solve."""
    t = [rec.wall_time_s for rec in result.history]
    dt = [b - a for a, b in zip(t, t[1:])]
    if not dt:
        return 0.0, 0.0
    d = max(1, len(dt) // 10)
    return 1e3 * statistics.median(dt[:d]), 1e3 * statistics.median(dt[-d:])


def run_setups(setup, count):
    """Run ``setup`` ``count`` times; returns (last problem, seconds of each)."""
    times = []
    problem = None
    for _ in range(count):
        problem = None  # release the previous system before building the next
        t0 = perf_counter()
        problem = setup()
        times.append(perf_counter() - t0)
    return problem, times


def timed_run(wl, seconds):
    problem, setup_times = run_setups(wl.setup, 1 + WARM_SETUPS)
    solve = wl.solver_fn()
    outcomes = []
    deadline = perf_counter() + seconds
    while len(outcomes) < MIN_SOLVES or perf_counter() < deadline:
        try:
            outcomes.append(wl.solve(problem, solve))
        except Exception as exc:  # a solve that raises counts as failed
            outcomes.append((exc, None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return problem, setup_times, outcomes, peak_rss_mb


def gate(wl, problem, results):
    """Check every finished solve against the oracle; returns (passes, figures)."""
    from workloads import check

    reference = wl.oracle(problem)
    passes, figures = [], []
    for res in results:
        if isinstance(res, Exception):
            passes.append(False)
            figures.append({"error": repr(res)})
            continue
        ok, fig = check(wl, problem, reference, res)
        passes.append(ok)
        figures.append(fig)
    return passes, figures


def print_figures(figures):
    keys = sorted({k for f in figures for k in f if k != "error"})
    for key in keys:
        vals = [f[key] for f in figures if key in f]
        print(f"  {key:<14} max {max(vals):.3e}  median {statistics.median(vals):.3e}")
    for f in figures:
        if "error" in f:
            print(f"  solve raised {f['error']}")


def end_to_end(wl, seconds):
    problem, setup_times, outcomes, peak = timed_run(wl, seconds)
    results = [r for r, _ in outcomes]
    passes, figures = gate(wl, problem, results)
    done = [(r, dt) for r, dt in outcomes if dt is not None]
    if not done:
        raise RuntimeError("every solve raised; no timing to report")
    solve_times = [dt for _, dt in done]
    iterations = [r.iterations for r, _ in done]
    attempted, failed = len(outcomes), passes.count(False)
    q1, q3 = quartiles(solve_times)
    warm = setup_times[1:]
    print(f"workload {wl.name}  seed {wl.seed}  solver {wl.solver}  tolerance {wl.tolerance:g}"
          "  closed loop, one solve at a time")
    print(f"setup_s      {median(warm):.4f} s   warm median of {len(warm)}"
          f" (q1 {quartiles(warm)[0]:.4f}, q3 {quartiles(warm)[1]:.4f});"
          f" cold setup {setup_times[0]:.4f} s")
    print(f"solve_s      {median(solve_times):.4f} s   median of {len(solve_times)}"
          f" (q1 {q1:.4f}, q3 {q3:.4f})")
    print("solve_s samples " + " ".join(f"{dt:.4f}" for dt in solve_times))
    print(f"iterations   {median(iterations):g} count   (min {min(iterations)},"
          f" max {max(iterations)})")
    print(f"peak_rss_mb  {peak:.1f} MB   high-water mark read before the oracle ran")
    print(f"fail_frac    {failed / attempted:g} frac   ({failed} of {attempted} solves failed)")
    print("errors (explicitly recomputed, oracle outside the timed region):")
    print_figures(figures)
    print("env " + json.dumps(environment(problem)))
    values = {
        "setup_s": median(warm),
        "solve_s": median(solve_times),
        "iterations": float(median(iterations)),
        "peak_rss_mb": peak,
        "pass_frac": (attempted - failed) / attempted,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return failed == 0, attempted, failed, metrics


def traced(wl, seconds, trace_path):
    """Per-layer run: traced setups, then pairs of one untraced and one traced solve."""
    import numpy as np

    from tracing import MATRIX_KERNELS, PRECOND_KERNELS, Tracer

    tracer = Tracer(f"{wl.name}-seed{wl.seed}-pid{os.getpid()}")
    wl.setup()  # cold setup, untraced and discarded, so the traced ones are warm
    with tracer.installed():
        problem, _ = run_setups(tracer.wrap("bench.setup", wl.setup), WARM_SETUPS)
    solve = wl.solver_fn()
    traced_solve = tracer.solver(wl.solver, solve)
    plain, traced_runs, fidelity = [], [], []
    deadline = perf_counter() + seconds
    while len(traced_runs) < MIN_SOLVES or perf_counter() < deadline:
        # Alternate which side of a pair runs first, so neither gains from the order.
        traced_first = len(traced_runs) % 2 == 1
        for use_trace in (traced_first, not traced_first):
            if use_trace:
                with tracer.installed():
                    traced_runs.append(wl.solve(problem, traced_solve))
            else:
                plain.append(wl.solve(problem, solve))
    ref = plain[0][0]
    for res, _ in plain[1:] + traced_runs:
        fidelity.append(res.iterations == ref.iterations and np.array_equal(res.u, ref.u)
                        and np.array_equal(res.p, ref.p))
    passes, figures = gate(wl, problem, [r for r, _ in plain + traced_runs])

    own = tracer.self_times()
    solves = tracer.roots(wl.solver)
    setups = tracer.roots("bench.setup")
    solve_tally = [tracer.tally(i, own) for i in solves]
    setup_tally = [tracer.tally(i, own) for i in setups]
    windows = [w for i in solves for w in tracer.per_iteration_counts(i)]
    counts_repeat = bool(windows) and all(w == windows[0] for w in windows)
    metrics = {}

    def put(name, value):
        metrics[name] = float(value)

    for k in MATRIX_KERNELS + PRECOND_KERNELS:
        span = f"linops.{k}"
        put(f"{span}.calls_per_iter", windows[0][span] if windows else 0)
        put(f"{span}.busy_s", median([t[span][1] for t in solve_tally]))
        put(f"{span}.us_per_call", median([1e6 * t[span][1] / t[span][0]
                                           for t in solve_tally if t[span][0]]))
        if k in MATRIX_KERNELS:
            flops, nbytes = kernel_cost(problem, k)
            put(f"{span}.flops_per_call", flops)
            put(f"{span}.bytes_per_call", nbytes)
    put("linops.factorize.busy_s", median([t["linops.factorize"][1] for t in setup_tally]))
    put("linops.to_dense.calls", median([t["linops.to_dense"][0] for t in setup_tally]))
    put("linops.to_dense.busy_s", median([t["linops.to_dense"][1] for t in setup_tally]))
    put("linops.from_dense.busy_s", median([t["linops.from_dense"][1] for t in setup_tally]))
    put("system.validate.busy_s", median([t["system.post_init"][1] + t["system.from_matrices"][1]
                                          for t in setup_tally]))
    put("problems.generate.self_s", median([t["problems.generate"][1] for t in setup_tally]))
    put("mmio.load.self_s", median([t["mmio.load"][1] for t in setup_tally]))
    put("mmio.bytes_read", median(tracer.bytes_read))
    iterations = [r.iterations for r, _ in traced_runs]
    solver_self = [own[i] for i in solves]
    is_ns = wl.solver == "nscraig"
    deciles = [iter_ms_deciles(r) for r, _ in plain]
    put("nscraig.self_s", median(solver_self) if is_ns else 0.0)
    put("nscraig.iter_ms.first_decile", median([d[0] for d in deciles]) if is_ns else 0.0)
    put("nscraig.iter_ms.last_decile", median([d[1] for d in deciles]) if is_ns else 0.0)
    put("nscraig.assemble_solution.busy_s",
        median([t["nscraig.assemble_solution"][1] for t in solve_tally]))
    put("craig.self_s", 0.0 if is_ns else median(solver_self))
    put("craig.self_ms_per_iter", 0.0 if is_ns else
        median([1e3 * s / k for s, k in zip(solver_self, iterations)]))
    spans = tracer.spans
    report = []
    for i in tracer.roots("cli.main"):
        children = [j for j in range(i + 1, spans[i][4]) if spans[j][1] == i
                    and spans[j][0] in ("cli.build_problem", wl.solver)]
        report.append(spans[i][3] - spans[i][2]
                      - sum(spans[j][3] - spans[j][2] for j in children))
    put("cli.report.busy_s", median(report))
    plain_s = median([dt for _, dt in plain])
    traced_s = median([dt for _, dt in traced_runs])
    put("trace.overhead_frac", traced_s / plain_s - 1.0)

    attempted, failed = len(passes), passes.count(False)
    print(f"workload {wl.name}  seed {wl.seed}  traced run: {len(traced_runs)} traced and "
          f"{len(plain)} untraced solves, {len(setups)} traced warm setups")
    print(f"fidelity     iterates bit-identical to the untraced run: {all(fidelity)};"
          f" calls per iteration identical in all {len(windows)} iteration windows:"
          f" {counts_repeat}")
    print(f"overhead     traced solve {traced_s:.4f} s vs untraced {plain_s:.4f} s")
    print(f"fail_frac    {failed / attempted:g} frac   ({failed} of {attempted} solves failed)")
    print_figures(figures)
    env = environment(problem)
    print("env " + json.dumps(env))
    units = per_layer_units()
    for name in units:
        print(f"  {name:<38} {metrics[name]:.6g} {units[name]}")
    tracer.dump(trace_path, env)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    ok = failed == 0 and all(fidelity) and counts_repeat
    return ok, attempted, failed, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gsp" / "__init__.py").is_file():
        print(f"bench: no gsp sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            (WORK / "traces").mkdir(exist_ok=True)
            path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            ok, attempted, failed, metrics = traced(wl, args.seconds, path)
        else:
            ok, attempted, failed, metrics = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
