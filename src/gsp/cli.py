"""Command-line harness: generate/load systems, run solvers, write histories.

Verbs:
  gsp run <manifest.json>      one or more solvers, history CSV + summary
  gsp compare <manifest.json>  >= 2 solvers, paper-style comparison table
  gsp gen {random|stokes} ...  write a system (Matrix Market + JSON manifest)

Exit codes: 0 all runs converged, 2 any non-convergence, 1 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys as _sys
import time

import numpy as np

from .baselines import direct_solve, pgmres_solve, pminres_solve, scr_cg_solve, scr_fom_solve
from .craig import craig_solve
from .errors import GspError
from .linops import FactorizedOperator
from .mmio import load_system, save_system, staged_files
from .nscraig import nscraig_solve
from .problems import RandomSpec, StokesSpec, gen_random, gen_stokes_channel_detailed
from .system import HISTORY_FIELDS, SolverConfig, check_fields, solver_inputs

SOLVERS = {
    "craig": craig_solve,
    "nscraig": nscraig_solve,
    "scr-cg": scr_cg_solve,
    "scr-fom": scr_fom_solve,
    "pminres": pminres_solve,
    "pgmres": pgmres_solve,
}
SPECS = {"random": RandomSpec, "stokes": StokesSpec}
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig) if f.name != "keep_basis")
HISTORY_COLUMNS = ("k",) + HISTORY_FIELDS


class UsageError(GspError):
    """Bad manifest or incompatible solver selection (exit code 1)."""


def _refuse_unknown(what, keys, known):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise UsageError(f"unknown {what} keys: {unknown}")


@dataclasses.dataclass
class RunManifest:
    """Parsed run description: each top-level key is a field, checked before build_problem.

    config is given as the manifest's JSON object and stored as the SolverConfig it describes.
    """

    problem: dict
    solvers: list[str]
    config: SolverConfig = dataclasses.field(default_factory=dict)
    output_dir: str = "."
    report_error_vs_oracle: bool = False
    preconditioner: str | None = None

    def __post_init__(self):
        check_fields(self, problem=dict, solvers=list, config=dict, output_dir=str,
                     report_error_vs_oracle=bool)
        unknown = [s for s in self.solvers if not isinstance(s, str) or s not in SOLVERS]
        if unknown:
            raise UsageError(f"unknown solvers: {unknown}")
        if not self.solvers:
            raise UsageError("solvers must name at least one solver")
        repeated = sorted({s for s in self.solvers if self.solvers.count(s) > 1})
        if repeated:  # each solver writes one history file, named after it
            raise UsageError(f"repeated solvers: {repeated}")
        if self.preconditioner not in (None, "identity", "pressure-mass"):
            raise UsageError(f"unknown preconditioner {self.preconditioner!r}")
        if (self.preconditioner == "pressure-mass"
                and self.problem.get("source") != "generate-stokes"):
            raise UsageError("pressure-mass preconditioner needs a generated stokes problem")
        _refuse_unknown("config", self.config, CONFIG_KEYS)
        try:
            self.config = SolverConfig(**self.config)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from exc

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"manifest {path} must hold a JSON object")
        _refuse_unknown("manifest", doc, (f.name for f in dataclasses.fields(cls)))
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in doc
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise UsageError(f"manifest missing keys: {missing}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise UsageError(f"manifest {exc}") from exc


def generate_problem(kind, fields):
    """(system, preconditioner) from the fields of a 'random' or 'stokes' spec.

    The spec checks the fields; the preconditioner is the channel's
    pressure-mass diagonal, None for a random instance.
    """
    spec_type = SPECS[kind]
    _refuse_unknown("problem", fields, (f.name for f in dataclasses.fields(spec_type)))
    try:
        spec = spec_type(**fields)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {kind} problem spec: {exc}") from exc
    if kind == "random":
        return gen_random(spec), None
    prob = gen_stokes_channel_detailed(spec)
    return prob.system, prob.preconditioner


def build_problem(manifest):
    """Instantiate the system and preconditioner; returns the setup time too.

    The setup time is the wall time of generating or loading the system,
    factorizing M included (the preconditioner is chosen after it).
    """
    fields = dict(manifest.problem)
    source = fields.pop("source", None)
    t0 = time.perf_counter()
    precond = None
    if source in ("generate-random", "generate-stokes"):
        system, precond = generate_problem(source.removeprefix("generate-"), fields)
    elif source == "load":
        path = fields.pop("path", None)
        if not isinstance(path, str):  # open(0) would read stdin
            raise UsageError(f"load source needs a string 'path', got {path!r}")
        _refuse_unknown("problem", fields, ())
        system = load_system(path)
    else:
        raise UsageError('problem has no "source"' if source is None
                         else f"unknown problem source '{source}'")
    setup_time = time.perf_counter() - t0
    if manifest.preconditioner == "identity" or precond is None:
        precond = FactorizedOperator.identity(system.n)
    return system, precond, setup_time


def _fmt(x):
    return "" if x is None else repr(float(x))


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_history_csv(path, history):
    _write_lines(path, [",".join(HISTORY_COLUMNS)] + [
        ",".join([str(rec.k)] + [_fmt(getattr(rec, col)) for col in HISTORY_COLUMNS[1:]])
        for rec in history])


def _full_residual_two_norm(system, result):
    f = np.concatenate([np.zeros(system.m), system.b])
    Kz = system.matvec(result.final_vector())
    return float(np.linalg.norm(f - Kz) / np.linalg.norm(f))


@dataclasses.dataclass
class RunReport:
    solver: str
    result: object
    solve_time_s: float
    err: float | None = None
    res_two_norm: float = 0.0


def check_output_dir(path):
    """UsageError unless path is a directory or os.makedirs can make it one.

    Nothing is created: a run that a solver refuses leaves no directory behind.
    An empty path is refused, since abspath reads it as the working directory
    while makedirs cannot make it.
    """
    if not path:
        raise UsageError("output directory is an empty path")
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise UsageError(f"output directory {path} cannot be created: {head} is not a directory")


def execute(manifest):
    """Run every solver in the manifest; returns (setup_time, reports).

    The output directory is checked before the problem is built, and every
    solver's refusal before the oracle and the first solve.
    """
    check_output_dir(manifest.output_dir)
    system, precond, setup_time = build_problem(manifest)
    for name in manifest.solvers:
        solver_inputs(name, system, precond, manifest.config)
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
    return setup_time, reports


def write_summary(output_dir, setup_time, reports):
    """gsp run's report: summary.csv plus one printed line per solver."""
    summary_lines = ["solver,iterations,termination,fired_criterion,solve_time_s,setup_time_s,"
                     "final_res_rel,final_res_two_norm,err_vs_oracle"]
    for rep in reports:
        res = rep.result
        final_res = res.history[-1].res_rel if res.history else float("nan")
        summary_lines.append(",".join([
            rep.solver, str(res.iterations), res.termination, res.fired_criterion or "",
            *map(_fmt, (rep.solve_time_s, setup_time, final_res, rep.res_two_norm, rep.err)),
        ]))
        err_txt = f"  ERR={rep.err:.4e}" if rep.err is not None else ""
        print(f"{rep.solver}: iterations={res.iterations} termination={res.termination} "
              f"rule={res.fired_criterion or '-'} time={rep.solve_time_s:.4f}s "
              f"setup={setup_time:.4f}s res_rel={final_res:.4e} "
              f"res_2norm={rep.res_two_norm:.4e}{err_txt}")
    _write_lines(os.path.join(output_dir, "summary.csv"), summary_lines)


def write_compare(output_dir, setup_time, reports):
    """gsp compare's report: rows iterations/time/ERR, one column per solver, '-' when
    not converged; printed, and written as compare.txt and compare.csv."""
    headers = [rep.solver for rep in reports]
    cols = [(str(r.result.iterations), f"{r.solve_time_s:.4f}", f"{r.err:.4e}")
            if r.result.converged else ("-", "-", "-") for r in reports]
    width = max(12, *(len(h) + 2 for h in headers))
    text = ["".rjust(12) + "".join(h.rjust(width) for h in headers)]
    csv = ["metric," + ",".join(headers)]
    for label, values in zip(("iterations", "time", "ERR"), zip(*cols)):
        text.append(label.rjust(12) + "".join(v.rjust(width) for v in values))
        csv.append(label + "," + ",".join(values))
    _write_lines(os.path.join(output_dir, "compare.txt"), text)
    _write_lines(os.path.join(output_dir, "compare.csv"), csv)
    print("\n".join(text))


@contextlib.contextmanager
def _reported_write_errors(output_dir):
    """Turn an OSError from writing the outputs (say, a directory where a file goes,
    or a full disk) into a UsageError naming the file, or output_dir if none."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or output_dir}: "
                         f"{exc.strerror or exc}") from exc


def cmd_run(manifest_path, compare=False):
    """gsp run, or gsp compare: parse, execute, write histories, report; the exit code.

    The histories and the report are written all or nothing (staged_files):
    a failed write leaves the output directory as it was.
    """
    manifest = RunManifest.from_file(manifest_path)
    if compare:
        if len(manifest.solvers) < 2:
            raise UsageError("compare needs at least two solvers")
        manifest.report_error_vs_oracle = True
    setup_time, reports = execute(manifest)
    with _reported_write_errors(manifest.output_dir), staged_files(manifest.output_dir) as stage:
        for rep in reports:
            write_history_csv(os.path.join(stage, f"{rep.solver}_history.csv"),
                              rep.result.history)
        (write_compare if compare else write_summary)(stage, setup_time, reports)
    return 0 if all(r.result.converged for r in reports) else 2


def cmd_gen(args):
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "kind", "output")}
    check_output_dir(args.output)
    system, _ = generate_problem(args.kind, fields)
    with _reported_write_errors(args.output):
        path = save_system(args.output, system)
    print(f"wrote {path} (m={system.m}, n={system.n}, M {system.M.kind})")
    return 0


def _flag_value(text):
    """A gen flag's value as an int, else a float, else the text: the spec checks its type."""
    for parse in (int, float):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


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
    for kind, spec_type in SPECS.items():  # one flag per spec field, with the spec's default
        kind_p = gen_sub.add_parser(kind)
        for f in dataclasses.fields(spec_type):
            required = f.default is dataclasses.MISSING
            kind_p.add_argument("--" + f.name.replace("_", "-"), type=_flag_value,
                                default=argparse.SUPPRESS, required=required,
                                nargs=2 if isinstance(f.default, tuple) else None,
                                help=None if required else f"default: {f.default}")
        kind_p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_run(args.manifest, compare=args.command == "compare")
    except GspError as exc:
        print(f"gsp: error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
