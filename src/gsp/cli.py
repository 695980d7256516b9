"""Command-line harness: generate/load systems, run solvers, write histories.

Verbs:
  gsp run <manifest.json>      one or more solvers, history CSV + summary
  gsp compare <manifest.json>  >= 2 solvers, paper-style comparison table
  gsp gen {random|stokes} ...  write a system (Matrix Market + JSON manifest)

Exit codes: 0 all runs converged, 2 any non-convergence, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
import time
from dataclasses import dataclass

import numpy as np

from .baselines import direct_solve, pgmres_solve, pminres_solve, scr_cg_solve, scr_fom_solve
from .craig import craig_solve
from .errors import GspError
from .linops import SpdPreconditioner
from .mmio import load_system, save_system
from .nscraig import nscraig_solve
from .problems import RandomSpec, StokesSpec, gen_random, gen_stokes_channel_detailed
from .system import SolverConfig

SOLVERS = {
    "craig": craig_solve,
    "nscraig": nscraig_solve,
    "scr-cg": scr_cg_solve,
    "scr-fom": scr_fom_solve,
    "pminres": pminres_solve,
    "pgmres": pgmres_solve,
}
NEEDS_SYMMETRIC = {"craig", "scr-cg", "pminres"}
JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string"}
HISTORY_COLUMNS = ("k", "res_rel", "err_est", "alpha", "beta_next", "scalar", "wall_time_s")


class UsageError(GspError):
    """Bad manifest or incompatible solver selection (exit code 1)."""


@dataclass
class RunManifest:
    """Parsed run description."""

    problem: dict
    solvers: list[str]
    config: SolverConfig
    output_dir: str
    report_error_vs_oracle: bool = False
    preconditioner: str | None = None

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"manifest {path} must hold a JSON object")
        try:
            problem, solvers = doc["problem"], doc["solvers"]
        except KeyError as exc:
            raise UsageError(f"manifest missing key {exc}") from exc
        cfg_doc = doc.get("config", {})
        output_dir = doc.get("output_dir", ".")
        for key, value, kind in (("problem", problem, dict), ("solvers", solvers, list),
                                 ("config", cfg_doc, dict), ("output_dir", output_dir, str)):
            if not isinstance(value, kind):
                raise UsageError(f"manifest '{key}' must be a JSON {JSON_TYPE_NAMES[kind]}, "
                                 f"got {value!r}")
        cfg_doc = dict(cfg_doc)
        criterion = cfg_doc.pop("criterion", "relative-residual")
        delay = cfg_doc.pop("error_delay", 5)
        if isinstance(criterion, dict):  # {"error-estimate": d}
            if len(criterion) != 1:
                raise UsageError(f"criterion object must have exactly one entry, got {criterion}")
            (criterion, delay), = criterion.items()
        try:
            cfg = SolverConfig(
                tolerance=_number(cfg_doc.pop("tolerance", 1e-6), "tolerance", float),
                max_iterations=_number(cfg_doc.pop("max_iterations", 3000), "max_iterations", int),
                criterion=criterion,
                error_delay=_number(delay, "error_delay", int),
                reorthogonalize=_flag(cfg_doc.pop("reorthogonalize", False), "reorthogonalize"),
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from exc
        if cfg_doc:
            raise UsageError(f"unknown config keys: {sorted(cfg_doc)}")
        unknown = [s for s in solvers if not isinstance(s, str) or s not in SOLVERS]
        if unknown:
            raise UsageError(f"unknown solvers: {unknown}")
        return cls(problem, solvers, cfg, output_dir,
                   _flag(doc.get("report_error_vs_oracle", False), "report_error_vs_oracle"),
                   doc.get("preconditioner"))


def _flag(value, key):
    """A manifest flag that must be JSON true or false: bool("false") is True."""
    if not isinstance(value, bool):
        raise UsageError(f"manifest '{key}' must be true or false, got {value!r}")
    return value


def _number(value, key, kind):
    """A manifest number as kind: int takes JSON integers only, float any finite JSON number.

    JSON true is not 1 here, nor is 2.9 a count, nor are Python's json
    extensions Infinity and NaN numbers. Raises TypeError, which the callers
    report as a UsageError naming the manifest section.
    """
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"'{key}' must be a JSON {'integer' if kind is int else 'number'}, "
                        f"got {value!r}")
    if kind is float and not abs(value) <= _sys.float_info.max:  # inf, NaN, 10**400
        raise TypeError(f"'{key}' must be finite, got {value!r}")
    return kind(value)


def build_problem(manifest):
    """Instantiate the system and preconditioner; returns the setup time too.

    The setup time is the wall time of generating or loading the system,
    factorizing M included (the preconditioner is chosen after it).
    """
    spec = dict(manifest.problem)
    source = spec.pop("source", None)
    t0 = time.perf_counter()
    precond = None
    if source == "generate-random":
        try:
            rspec = RandomSpec(
                m=_number(spec.pop("m"), "m", int), n=_number(spec.pop("n"), "n", int),
                density=_number(spec.pop("density", 1.0), "density", float),
                spectrum=tuple(_number(v, "spectrum", float)
                               for v in spec.pop("spectrum", (1.0, 2.0))),
                skew_strength=_number(spec.pop("skew_strength", 0.0), "skew_strength", float),
                c_rank=_number(spec.pop("c_rank", 0), "c_rank", int),
                seed=_number(spec.pop("seed", 0), "seed", int),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad random problem spec: {exc}") from exc
        system = gen_random(rspec)
    elif source == "generate-stokes":
        try:
            sspec = StokesSpec(
                nx=_number(spec.pop("nx"), "nx", int), ny=_number(spec.pop("ny"), "ny", int),
                length=_number(spec.pop("length", 1.0), "length", float),
                viscosity=_number(spec.pop("viscosity", 1.0), "viscosity", float),
                gamma=_number(spec.pop("gamma", 0.25), "gamma", float),
                oseen_wind=spec.pop("oseen_wind", None),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad stokes problem spec: {exc}") from exc
        prob = gen_stokes_channel_detailed(sspec)
        system, precond = prob.system, prob.preconditioner
    elif source == "load":
        path = spec.pop("path", None)
        if not isinstance(path, str):  # open(0) would read stdin
            raise UsageError(f"load source needs a string 'path', got {path!r}")
        system = load_system(path)
    else:
        raise UsageError(f"unknown problem source '{source}'")
    if spec:
        raise UsageError(f"unknown problem keys: {sorted(spec)}")
    setup_time = time.perf_counter() - t0

    choice = manifest.preconditioner
    if choice not in (None, "identity", "pressure-mass"):
        raise UsageError(f"unknown preconditioner '{choice}'")
    if choice == "pressure-mass" and precond is None:
        raise UsageError("pressure-mass preconditioner needs a generated stokes problem")
    if choice == "identity" or precond is None:
        precond = SpdPreconditioner.identity(system.n)
    return system, precond, setup_time


def check_compatibility(manifest, system):
    bad = [s for s in manifest.solvers if s in NEEDS_SYMMETRIC and not system.symmetric]
    if bad:
        raise UsageError(f"solvers {bad} require the symmetric flag")


def _fmt(x):
    return "" if x is None else repr(float(x))


def write_history_csv(path, history):
    lines = [",".join(HISTORY_COLUMNS)]
    for rec in history:
        lines.append(",".join([
            str(rec.k), _fmt(rec.res_rel), _fmt(rec.err_est), _fmt(rec.alpha),
            _fmt(rec.beta_next), _fmt(rec.scalar), _fmt(rec.wall_time_s),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _full_residual_two_norm(system, result):
    f = np.concatenate([np.zeros(system.m), system.b])
    Kz = system.matvec(result.final_vector())
    return float(np.linalg.norm(f - Kz) / np.linalg.norm(f))


@dataclass
class RunReport:
    solver: str
    result: object
    solve_time_s: float
    err: float | None = None
    res_two_norm: float = 0.0


def execute(manifest):
    """Run every solver in the manifest; returns (system, setup_time, reports)."""
    system, precond, setup_time = build_problem(manifest)
    check_compatibility(manifest, system)
    oracle = None
    if manifest.report_error_vs_oracle:
        oracle = np.concatenate(direct_solve(system))
    reports = []
    for name in manifest.solvers:
        t0 = time.perf_counter()
        result = SOLVERS[name](system, precond, manifest.config)
        dt = time.perf_counter() - t0
        err = None
        if oracle is not None:
            err = float(np.linalg.norm(result.final_vector() - oracle) / np.linalg.norm(oracle))
        reports.append(RunReport(name, result, dt, err, _full_residual_two_norm(system, result)))
    return system, setup_time, reports


def cmd_run(manifest_path):
    manifest = RunManifest.from_file(manifest_path)
    system, setup_time, reports = execute(manifest)
    os.makedirs(manifest.output_dir, exist_ok=True)
    summary_lines = ["solver,iterations,termination,solve_time_s,setup_time_s,"
                     "final_res_rel,final_res_two_norm,err_vs_oracle"]
    for rep in reports:
        res = rep.result
        write_history_csv(os.path.join(manifest.output_dir, f"{rep.solver}_history.csv"),
                          res.history)
        final_res = res.history[-1].res_rel if res.history else float("nan")
        summary_lines.append(",".join([
            rep.solver, str(res.iterations), res.termination, _fmt(rep.solve_time_s),
            _fmt(setup_time), _fmt(final_res), _fmt(rep.res_two_norm), _fmt(rep.err),
        ]))
        err_txt = f"  ERR={rep.err:.4e}" if rep.err is not None else ""
        print(f"{rep.solver}: iterations={res.iterations} termination={res.termination} "
              f"time={rep.solve_time_s:.4f}s setup={setup_time:.4f}s "
              f"res_rel={final_res:.4e} res_2norm={rep.res_two_norm:.4e}{err_txt}")
    with open(os.path.join(manifest.output_dir, "summary.csv"), "w") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    return 0 if all(r.result.converged for r in reports) else 2


def render_compare_table(reports):
    """Rows iterations/time/ERR, one column per solver, '-' when not converged."""
    headers = [rep.solver for rep in reports]
    rows = {"iterations": [], "time": [], "ERR": []}
    for rep in reports:
        if rep.result.converged:
            rows["iterations"].append(str(rep.result.iterations))
            rows["time"].append(f"{rep.solve_time_s:.4f}")
            rows["ERR"].append(f"{rep.err:.4e}" if rep.err is not None else "")
        else:
            rows["iterations"].append("-")
            rows["time"].append("-")
            rows["ERR"].append("-")
    width = max(12, *(len(h) + 2 for h in headers))
    text = ["".rjust(12) + "".join(h.rjust(width) for h in headers)]
    for label in ("iterations", "time", "ERR"):
        text.append(label.rjust(12) + "".join(v.rjust(width) for v in rows[label]))
    csv = ["metric," + ",".join(headers)]
    for label in ("iterations", "time", "ERR"):
        csv.append(label + "," + ",".join(rows[label]))
    return "\n".join(text) + "\n", "\n".join(csv) + "\n"


def cmd_compare(manifest_path):
    manifest = RunManifest.from_file(manifest_path)
    if len(manifest.solvers) < 2:
        raise UsageError("compare needs at least two solvers")
    manifest.report_error_vs_oracle = True
    _, _, reports = execute(manifest)
    os.makedirs(manifest.output_dir, exist_ok=True)
    for rep in reports:
        write_history_csv(os.path.join(manifest.output_dir, f"{rep.solver}_history.csv"),
                          rep.result.history)
    text, csv = render_compare_table(reports)
    with open(os.path.join(manifest.output_dir, "compare.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(manifest.output_dir, "compare.csv"), "w") as fh:
        fh.write(csv)
    print(text, end="")
    return 0 if all(r.result.converged for r in reports) else 2


def cmd_gen(args):
    if args.kind == "random":
        spec = RandomSpec(m=args.m, n=args.n, density=args.density,
                          spectrum=(args.lo, args.hi), skew_strength=args.skew,
                          c_rank=args.c_rank if args.c_rank >= 0 else args.n // 2,
                          seed=args.seed)
        system = gen_random(spec)
    else:
        spec = StokesSpec(nx=args.nx, ny=args.ny, length=args.length,
                          viscosity=args.viscosity, gamma=args.gamma,
                          oseen_wind=args.oseen_wind)
        system = gen_stokes_channel_detailed(spec).system
    path = save_system(args.output, system)
    print(f"wrote {path} (m={system.m}, n={system.n}, symmetric={system.symmetric})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser():
    parser = _Parser(prog="gsp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the solvers named in a manifest")
    run_p.add_argument("manifest")
    cmp_p = sub.add_parser("compare", help="run >= 2 solvers and tabulate them")
    cmp_p.add_argument("manifest")

    gen_p = sub.add_parser("gen", help="generate a system on disk")
    gen_sub = gen_p.add_subparsers(dest="kind", required=True)
    rnd = gen_sub.add_parser("random")
    rnd.add_argument("--m", type=int, required=True)
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--density", type=float, default=1.0)
    rnd.add_argument("--lo", type=float, default=1.0)
    rnd.add_argument("--hi", type=float, default=2.0)
    rnd.add_argument("--skew", type=float, default=0.0)
    rnd.add_argument("--c-rank", dest="c_rank", type=int, default=-1)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("-o", "--output", required=True)
    stk = gen_sub.add_parser("stokes")
    stk.add_argument("--nx", type=int, required=True)
    stk.add_argument("--ny", type=int, required=True)
    stk.add_argument("--length", type=float, default=1.0)
    stk.add_argument("--viscosity", type=float, default=1.0)
    stk.add_argument("--gamma", type=float, default=0.25)
    stk.add_argument("--oseen-wind", dest="oseen_wind", default=None)
    stk.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args.manifest)
        if args.command == "compare":
            return cmd_compare(args.manifest)
        return cmd_gen(args)
    except GspError as exc:
        print(f"gsp: error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
