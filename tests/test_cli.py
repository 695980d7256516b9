"""CLI harness: manifests, histories, summaries, comparison tables."""

import csv
import dataclasses
import errno
import json
import math
import os
import re

import numpy as np
import pytest

import gsp.cli
import gsp.mmio
from conftest import LoggedSolves, indefinite_m_system
from gsp import (RandomSpec, SaddleSystem, SolverConfig, StokesSpec, craig_solve, factorize,
                 gen_random, gen_stokes_channel_detailed, load_system, save_system)
from gsp.cli import SOLVERS, SPECS, RunManifest, UsageError, main, make_parser
from gsp.errors import DimensionError, NotSpdError, WrongSolverError, ZeroRhsError
from gsp.system import SOLVER_RULES


RANDOM = {"source": "generate-random", "m": 10, "n": 5, "c_rank": 2, "seed": 1}


def write_manifest(path, **doc):
    doc.setdefault("config", {"tolerance": 1e-6, "max_iterations": 3000})
    doc.setdefault("output_dir", str(path.parent / "out"))
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def hand_dir(tmp_path, hand_system):
    d = tmp_path / "hand"
    save_system(d, hand_system)
    return d


def read_history(out_dir, solver):
    with open(out_dir / f"{solver}_history.csv") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_hand_system_craig_and_scr_cg(self, tmp_path, hand_dir, capsys):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(hand_dir / "system.json")},
            solvers=["craig", "scr-cg"],
            output_dir=str(tmp_path / "out"),
            report_error_vs_oracle=True,
        )
        assert main(["run", manifest]) == 0
        rows_c = read_history(tmp_path / "out", "craig")
        rows_g = read_history(tmp_path / "out", "scr-cg")
        assert len(rows_c) == 1 and len(rows_g) == 1
        assert abs(float(rows_c[0]["res_rel"]) - float(rows_g[0]["res_rel"])) <= 1e-12
        with open(tmp_path / "out" / "summary.csv") as fh:
            errs = [float(r["err_vs_oracle"]) for r in csv.DictReader(fh)]
        assert all(e <= 1e-12 for e in errs)  # both solvers hit the same exact p
        out = capsys.readouterr().out
        assert "craig: iterations=1" in out
        assert "scr-cg: iterations=1" in out

    def test_nscraig_on_symmetric_matches_craig_history(self, tmp_path, hand_dir):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(hand_dir / "system.json")},
            solvers=["craig", "nscraig"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["run", manifest]) == 0
        rows_c = read_history(tmp_path / "out", "craig")
        rows_n = read_history(tmp_path / "out", "nscraig")
        assert len(rows_c) == len(rows_n)
        for rc, rn in zip(rows_c, rows_n):
            assert abs(float(rc["res_rel"]) - float(rn["res_rel"])) <= 1e-10
            assert abs(float(rc["scalar"]) - float(rn["scalar"])) <= 1e-10

    def test_unreachable_tolerance_exits_2(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "generate-random", "m": 16, "n": 8, "c_rank": 4,
                     "seed": 3, "spectrum": [1.0, 1e6]},
            solvers=["craig"],
            config={"tolerance": 1e-30, "max_iterations": 5},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["run", manifest]) == 2
        with open(tmp_path / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["termination"] == "max-iterations"
        assert rows[0]["fired_criterion"] == ""  # no stopping rule fired

    @pytest.mark.parametrize("failure", ["missing-file", "missing-key", "bad-json"])
    def test_load_failure_is_reported_without_traceback(self, tmp_path, hand_dir, capsys,
                                                         failure):
        system_json = hand_dir / "system.json"
        culprit = system_json
        if failure == "missing-file":
            culprit = hand_dir / "A.mtx"
            culprit.unlink()
        elif failure == "missing-key":
            doc = json.loads(system_json.read_text())
            del doc["c_file"]
            system_json.write_text(json.dumps(doc))
        else:
            system_json.write_text("{not json")
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(system_json)},
            solvers=["craig"],
        )
        assert main(["run", manifest]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gsp: error: ") and str(culprit) in err

    @pytest.mark.parametrize("doc, fragment", [
        ([{"problem": RANDOM, "solvers": ["craig"]}], "must hold a JSON object"),
        ({"problem": "x", "solvers": ["craig"]}, "'problem' must be a JSON object"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": [1]},
         "'config' must be a JSON object"),
        # criterion is SolverConfig's string; a {"error-estimate": d} object is not a spelling.
        ({"problem": RANDOM, "solvers": ["craig"],
          "config": {"criterion": {"error-estimate": 3}}},
         "bad config: 'criterion' must be a string, got {'error-estimate': 3}"),
        ({"problem": dict(RANDOM, spectrum=5), "solvers": ["craig"]}, "bad random problem spec"),
        ({"problem": RANDOM, "solvers": "craig"}, "'solvers' must be a JSON array"),
        ({"problem": RANDOM, "solvers": [["craig"]]}, "unknown solvers"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"tolerance": None}}, "bad config"),
        # open(0) would read a system manifest from stdin.
        ({"problem": {"source": "load", "path": 0}, "solvers": ["craig"]}, "string 'path'"),
        ({"problem": {"source": "load"}, "solvers": ["craig"]}, "string 'path'"),
        ({"problem": {"source": "load", "path": "system.json", "nx": 4}, "solvers": ["craig"]},
         "gsp: error: unknown problem keys: ['nx']\n"),
        # float(True) is 1.0 and int(2.9) is 2: wrong-kind numbers must not run.
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"tolerance": True}},
         "'tolerance' must be a number, got True"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"max_iterations": 2.9}},
         "'max_iterations' must be an integer, got 2.9"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"max_iterations": False}},
         "'max_iterations' must be an integer, got False"),
        ({"problem": RANDOM, "solvers": ["craig"],
          "config": {"criterion": "error-estimate", "error_delay": 2.0}},
         "'error_delay' must be an integer"),
        ({"problem": dict(RANDOM, m=10.0), "solvers": ["craig"]},
         "bad random problem spec: 'm' must be an integer, got 10.0"),
        ({"problem": dict(RANDOM, density="1"), "solvers": ["craig"]},
         "'density' must be a number, got '1'"),
        ({"problem": dict(RANDOM, spectrum=[1, True]), "solvers": ["craig"]},
         "'spectrum' must be a number, got True"),
        ({"problem": {"source": "generate-stokes", "nx": 4.9, "ny": 4}, "solvers": ["craig"]},
         "bad stokes problem spec: 'nx' must be an integer, got 4.9"),
        ({"problem": {"source": "generate-stokes", "nx": 4, "ny": 4, "viscosity": True},
          "solvers": ["craig"]}, "'viscosity' must be a number, got True"),
        # Python's json reads Infinity and NaN; neither is a usable real.
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"tolerance": math.inf}},
         "bad config: 'tolerance' must be finite, got inf"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"tolerance": math.nan}},
         "bad config: 'tolerance' must be finite, got nan"),
        ({"problem": {"source": "generate-stokes", "nx": 4, "ny": 4, "length": math.inf},
          "solvers": ["craig"]}, "bad stokes problem spec: 'length' must be finite, got inf"),
        # A key outside config, or a misspelled one, would otherwise run with the defaults.
        ({"problem": RANDOM, "solvers": ["nscraig"], "tolerance": 1e-12},
         "unknown manifest keys: ['tolerance']"),
        ({"problem": RANDOM, "solvers": ["nscraig"], "precondtioner": "identity"},
         "unknown manifest keys: ['precondtioner']"),
        ({"problem": RANDOM, "solvers": ["craig"], "preconditioner": 5},
         "unknown preconditioner 5"),
        # Full reorthogonalization is the solver nscraig, not a config key.
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"reorthogonalize": True}},
         "unknown config keys: ['reorthogonalize']"),
        ({"problem": RANDOM}, "manifest missing keys: ['solvers']"),
        # An empty list would run nothing; a repeated solver would write two rows, one history.
        ({"problem": RANDOM, "solvers": []}, "solvers must name at least one solver"),
        ({"problem": RANDOM, "solvers": ["nscraig", "craig", "nscraig"]},
         "repeated solvers: ['nscraig']"),
        ({"problem": dict(RANDOM, source="generate-lattice"), "solvers": ["craig"]},
         "unknown problem source 'generate-lattice'"),
        ({"problem": {"m": 10, "n": 5}, "solvers": ["craig"]}, 'problem has no "source"'),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"max_iterations": 0}},
         "bad config: max_iterations must be at least 1"),
        ({"problem": {"source": "generate-stokes", "nx": 4, "ny": 4, "gamma": -1.0},
          "solvers": ["craig"]}, "bad stokes problem spec: gamma must be nonnegative"),
        # A spec's required field is named, not read off a TypeError of its constructor.
        ({"problem": {"source": "generate-random", "n": 5}, "solvers": ["craig"]},
         "random problem spec missing keys: ['m']"),
        ({"problem": {"source": "generate-stokes", "ny": 4}, "solvers": ["craig"]},
         "stokes problem spec missing keys: ['nx']"),
    ], ids=["top-level-array", "problem-string", "config-array", "criterion-object",
            "spectrum-number", "solvers-string", "solver-array", "tolerance-null",
            "load-path-number", "load-path-missing", "load-extra-key", "tolerance-true", "max-iterations-float",
            "max-iterations-false", "error-delay-float", "m-float", "density-string",
            "spectrum-entry-true", "nx-float", "viscosity-true", "tolerance-infinity",
            "tolerance-nan", "length-infinity", "top-level-tolerance",
            "misspelled-preconditioner", "preconditioner-number", "config-reorthogonalize",
            "solvers-missing", "solvers-empty", "solvers-repeated", "source-unknown",
            "source-missing", "max-iterations-zero", "gamma-negative", "random-m-missing",
            "stokes-nx-missing"])
    def test_malformed_manifest_is_refused_without_traceback(self, tmp_path, capsys, doc,
                                                             fragment):
        if isinstance(doc, dict):
            doc = dict(doc, output_dir=str(tmp_path / "out"))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gsp: error: ") and err.count("\n") == 1 and fragment in err
        assert not (tmp_path / "out").exists()

    def test_missing_manifest_is_refused_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gsp: error: cannot read manifest {path}: ")
        assert "No such file or directory" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["false", 0, None], ids=["string-false", "zero", "null"])
    @pytest.mark.parametrize("key", ["report_error_vs_oracle"])
    def test_non_boolean_flag_is_refused(self, tmp_path, capsys, key, value):
        # bool("false") is True: a non-boolean flag must not switch anything on.
        doc = {"problem": RANDOM, "solvers": ["craig"], "output_dir": str(tmp_path / "out"),
               key: value}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UsageError, match=f"'{key}' must be true or false"):
            RunManifest.from_file(str(path))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gsp: error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_keep_basis_is_not_a_manifest_key(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"problem": RANDOM, "solvers": ["nscraig"],
                                    "config": {"keep_basis": True}}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "gsp: error: unknown config keys: ['keep_basis']\n"

    @pytest.mark.parametrize("m", [10**30, 5001], ids=["huge", "over-cap"])
    def test_random_m_over_dense_cap_refused_before_generating(self, tmp_path, capsys,
                                                               monkeypatch, m):
        def never(spec):
            raise AssertionError("gen_random must not run")

        monkeypatch.setattr("gsp.cli.gen_random", never)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"problem": dict(RANDOM, m=m), "solvers": ["craig"],
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("gsp: error: bad random problem spec: "
                       f"m must be at most 5000 (M is stored dense), got {m}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem, preconditioner, skipped, message", [
        (dict(RANDOM, m=3000, n=1500), "jacobi", "gen_random", "unknown preconditioner 'jacobi'"),
        ({"source": "load", "path": "system.json"}, "pressure-mass", "load_system",
         "pressure-mass preconditioner needs a generated stokes problem"),
    ], ids=["jacobi", "pressure-mass-on-load"])
    def test_preconditioner_refused_before_generating_or_loading(
            self, tmp_path, capsys, monkeypatch, problem, preconditioner, skipped, message):
        def never(*args):
            raise AssertionError(f"{skipped} must not run")

        monkeypatch.setattr(f"gsp.cli.{skipped}", never)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"problem": problem, "solvers": ["nscraig"],
                                    "preconditioner": preconditioner,
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"gsp: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source, preconditioner", [
        ("generate-stokes", None), ("generate-stokes", "pressure-mass"),
        ("generate-stokes", "identity"), ("generate-random", None)])
    def test_preconditioner_key_picks_the_n_it_names(self, tmp_path, monkeypatch, source,
                                                     preconditioner):
        seen = []

        def capture(system, N, cfg):
            seen.append(N)
            return craig_solve(system, N, cfg)

        monkeypatch.setitem(SOLVERS, "craig", capture)
        problem = {"source": source, "nx": 8, "ny": 8} if source == "generate-stokes" else RANDOM
        doc = dict(problem=problem, solvers=["craig"])
        if preconditioner is not None:
            doc["preconditioner"] = preconditioner
        assert main(["run", write_manifest(tmp_path / "m.json", **doc)]) == 0
        [N] = seen
        n = N.dimension
        if source == "generate-stokes" and preconditioner != "identity":
            want = gen_stokes_channel_detailed(StokesSpec(nx=8, ny=8)).preconditioner
            assert np.array_equal(np.asarray(want.matrix), np.eye(n) / 64)  # hx hy on the diagonal
        else:
            assert n == (5 if source == "generate-random" else 63)
            want = factorize(np.eye(n))
        assert N.kind == want.kind and np.array_equal(np.asarray(N.matrix), np.asarray(want.matrix))

    @pytest.mark.parametrize("nx, ny", [(10**21, 4), (40000, 40000)], ids=["nx-huge", "grid-40000"])
    def test_stokes_grid_past_int32_indices_refused_before_generating(self, tmp_path, capsys,
                                                                      monkeypatch, nx, ny):
        def never(spec):
            raise AssertionError("gen_stokes_channel_detailed must not run")

        monkeypatch.setattr("gsp.cli.gen_stokes_channel_detailed", never)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"problem": {"source": "generate-stokes", "nx": nx, "ny": ny},
                                    "solvers": ["craig"], "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gsp: error: bad stokes problem spec: grid nx={nx}, ny={ny} ")
        assert err.endswith("past the generator's int32 indices\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_boolean_flags_load_as_given(self, tmp_path):
        path = tmp_path / "m.json"
        for flag in (True, False):
            path.write_text(json.dumps({"problem": RANDOM, "solvers": ["craig"],
                                        "report_error_vs_oracle": flag}))
            assert RunManifest.from_file(str(path)).report_error_vs_oracle is flag

    @pytest.mark.parametrize("criterion", ["relative-residual", "error-estimate", "both"])
    def test_config_is_the_solver_config_fields(self, criterion):
        # error_delay beside relative-residual is accepted and unused, as in the library.
        config = {"criterion": criterion, "error_delay": 4}
        manifest = RunManifest(problem=RANDOM, solvers=["craig"], config=config)
        assert manifest.config == SolverConfig(**config)

    def test_integer_reals_load_as_floats(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"problem": RANDOM, "solvers": ["craig"],
                                    "config": {"tolerance": 1, "max_iterations": 7}}))
        cfg = RunManifest.from_file(str(path)).config
        assert (cfg.tolerance, cfg.max_iterations) == (1.0, 7)
        assert type(cfg.tolerance) is float and type(cfg.max_iterations) is int

    def test_incompatible_solver_rejected_before_running(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "generate-random", "m": 10, "n": 5,
                     "skew_strength": 0.5, "seed": 1},
            solvers=["craig"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["run", manifest]) == 1
        assert "symmetric" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_res_rel_column_round_trips_exactly(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "generate-random", "m": 12, "n": 6, "c_rank": 3, "seed": 5},
            solvers=["craig"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["run", manifest]) == 0
        from gsp import RandomSpec, craig_solve, gen_random

        res = craig_solve(gen_random(RandomSpec(m=12, n=6, c_rank=3, seed=5)))
        rows = read_history(tmp_path / "out", "craig")
        for rec, row in zip(res.history, rows):
            assert float(row["res_rel"]) == rec.res_rel  # bit-for-bit

    def test_error_vs_oracle_reported(self, tmp_path, hand_dir):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(hand_dir / "system.json")},
            solvers=["craig"],
            output_dir=str(tmp_path / "out"),
            report_error_vs_oracle=True,
        )
        assert main(["run", manifest]) == 0
        with open(tmp_path / "out" / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["err_vs_oracle"]) <= 1e-12


class TestCompare:
    def test_single_solver_is_usage_error(self, tmp_path, hand_dir, capsys):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(hand_dir / "system.json")},
            solvers=["craig"],
        )
        assert main(["compare", manifest]) == 1
        assert "two solvers" in capsys.readouterr().err

    def test_nscraig_and_scr_fom_identical_counts(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "generate-random", "m": 20, "n": 10,
                     "skew_strength": 0.5, "c_rank": 5, "seed": 42},
            solvers=["nscraig", "scr-fom"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["compare", manifest]) == 0
        with open(tmp_path / "out" / "compare.csv") as fh:
            rows = {r[0]: r[1:] for r in csv.reader(fh)}
        assert rows["iterations"][0] == rows["iterations"][1]

    def test_dash_for_non_converged(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "generate-random", "m": 16, "n": 8, "c_rank": 4,
                     "seed": 3, "spectrum": [1.0, 1e6]},
            solvers=["craig", "scr-cg"],
            config={"tolerance": 1e-30, "max_iterations": 4},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["compare", manifest]) == 2
        text = (tmp_path / "out" / "compare.txt").read_text()
        assert "-" in text.splitlines()[1]

    def test_table_layout(self, tmp_path, hand_dir, capsys):
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(hand_dir / "system.json")},
            solvers=["craig", "pminres"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["compare", manifest]) == 0
        lines = (tmp_path / "out" / "compare.txt").read_text().splitlines()
        assert lines[0].split() == ["craig", "pminres"]
        assert [ln.split()[0] for ln in lines[1:]] == ["iterations", "time", "ERR"]

    def test_stokes48_compare_reports_oracle_error(self, tmp_path):
        # m + n = 6815: the oracle has no size cap.
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "generate-stokes", "nx": 48, "ny": 48},
            solvers=["craig", "nscraig"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["compare", manifest]) == 0
        with open(tmp_path / "out" / "compare.csv") as fh:
            rows = {r[0]: r[1:] for r in csv.reader(fh)}
        assert all(float(err) < 1e-5 for err in rows["ERR"])


def test_error_estimate_criterion_in_manifest(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.json",
        problem={"source": "generate-random", "m": 16, "n": 8, "c_rank": 4, "seed": 6},
        solvers=["craig"],
        config={"tolerance": 1e-6, "criterion": "error-estimate", "error_delay": 3},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", manifest]) == 0
    rows = read_history(tmp_path / "out", "craig")
    assert any(r["err_est"] for r in rows)


def test_summary_names_the_fired_rule(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json",
        problem={"source": "generate-random", "m": 60, "n": 30, "c_rank": 15, "seed": 71,
                 "skew_strength": 0.5},
        solvers=["nscraig", "scr-fom", "pgmres"],
        config={"tolerance": 1e-4},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", manifest]) == 0
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[2:4] == ["termination", "fired_criterion"]
    assert [r["fired_criterion"] for r in rows] == ["relative-residual"] * 3
    assert capsys.readouterr().out.count("rule=relative-residual") == 3


def test_error_estimate_criterion_refused_for_baselines(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a solver ran before every refusal was checked")

    for name in SOLVERS:
        monkeypatch.setitem(SOLVERS, name, never)
    manifest = write_manifest(
        tmp_path / "m.json",
        problem={"source": "generate-random", "m": 40, "n": 20, "c_rank": 10, "seed": 71},
        solvers=["nscraig", "scr-fom"],
        config={"tolerance": 1e-6, "criterion": "error-estimate", "error_delay": 3},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gsp: error: scr-fom has no error estimate") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_rules_table_holds_the_solver_domains():
    # CRAIG, SCR-CG and MINRES need an SPD leading block; only the two CRAIGs estimate the error;
    # only nsCRAIG and SCR-FOM multiply by N.
    symmetric = {name for name, rule in SOLVER_RULES.items() if rule.needs_symmetric}
    estimate = {name for name, rule in SOLVER_RULES.items() if rule.error_estimate}
    product = {name for name, rule in SOLVER_RULES.items() if rule.needs_n_product}
    assert symmetric == {"craig", "scr-cg", "pminres"} and estimate == {"craig", "nscraig"}
    assert product == {"nscraig", "scr-fom"}


def _refusal(name, case):
    """The error solver name raises in case, or None if it runs: SOLVER_RULES's, or ZeroRhsError."""
    rule = SOLVER_RULES[name]
    if case == "nonsymmetric":
        return WrongSolverError if rule.needs_symmetric else None
    if case == "error-estimate":
        return None if rule.error_estimate else WrongSolverError
    return ZeroRhsError


@pytest.mark.parametrize("case", ["nonsymmetric", "error-estimate", "zero-b", "underflow-b"])
@pytest.mark.parametrize("name", list(SOLVERS))
def test_library_and_cli_refuse_what_the_rules_table_says(tmp_path, capsys, name, case):
    assert SOLVER_RULES.keys() == SOLVERS.keys()
    system = gen_random(RandomSpec(m=10, n=5, c_rank=2, seed=1,
                                   skew_strength=0.5 if case == "nonsymmetric" else 0.0))
    if case in ("zero-b", "underflow-b"):  # underflow-b: nonzero, but its norm underflows to 0
        b = np.zeros(system.n) if case == "zero-b" else np.full(system.n, 1e-170)
        system = SaddleSystem(system.M, system.A, system.C, b)
    config, cfg = {}, SolverConfig()
    if case == "error-estimate":
        config = {"criterion": "error-estimate", "error_delay": 3}
        cfg = SolverConfig(criterion="error-estimate", error_delay=3)
    save_system(tmp_path / "sys", system)
    manifest = write_manifest(
        tmp_path / "m.json",
        problem={"source": "load", "path": str(tmp_path / "sys" / "system.json")},
        solvers=[name], config=config, output_dir=str(tmp_path / "out"),
    )
    refusal = _refusal(name, case)
    code = main(["run", manifest])
    err = capsys.readouterr().err
    if refusal is None:
        assert SOLVERS[name](system, None, cfg).iterations >= 1
        assert code in (0, 2) and err == ""
    else:
        with pytest.raises(refusal) as exc:
            SOLVERS[name](system, None, cfg)
        assert code == 1 and err == f"gsp: error: {exc.value}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, refusal", [("nonsymmetric", NotSpdError),
                                           ("dimension-n-plus-1", DimensionError)])
@pytest.mark.parametrize("name", list(SOLVERS))
def test_non_spd_or_mis_sized_n_refused_before_any_solve(tmp_path, capsys, monkeypatch, name,
                                                         case, refusal):
    system = gen_random(RandomSpec(m=40, n=20, c_rank=5, seed=3))
    K = 2.0 * np.eye(20) + np.eye(20, k=1) if case == "nonsymmetric" else np.eye(21)
    solves = []
    N = LoggedSolves(factorize(K), solves)
    with pytest.raises(refusal) as exc:
        SOLVERS[name](system, N, None)
    assert solves == []

    def never(*args):
        raise AssertionError("a solver ran before every refusal was checked")

    monkeypatch.setattr(gsp.cli, "build_problem", lambda manifest: (system, N, 0.0))
    monkeypatch.setitem(SOLVERS, name, never)
    manifest = write_manifest(tmp_path / "m.json", problem=RANDOM, solvers=[name])
    assert main(["run", manifest]) == 1
    assert capsys.readouterr().err == f"gsp: error: {exc.value}\n"
    assert solves == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, where", [
    (verb, where) for verb in ("run", "compare", "gen")
    for where in ("existing-file", "under-a-file", "empty", "output-file-is-a-directory",
                  "disk-full")
] + [("gen", "block-file-is-a-directory")])
def test_output_path_that_cannot_be_a_directory_is_one_error_line(tmp_path, capsys,
                                                                   monkeypatch, verb, where):
    def never(*args):
        raise AssertionError("ran before the output path was checked")

    if where.endswith("-is-a-directory"):  # seen only once every solve has run
        out = tmp_path / "out"
        name = "system.json" if verb == "gen" else "craig_history.csv"
        blocker = out / ("A.mtx" if where == "block-file-is-a-directory" else name)
        blocker.mkdir(parents=True)
        expected = f"cannot write {blocker}: Is a directory"
    elif where == "disk-full":  # an OSError that names no file
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(gsp.cli, "save_system" if verb == "gen" else "write_history_csv", full)
        out = tmp_path / "out"
        expected = f"cannot write {out}: {os.strerror(errno.ENOSPC)}"
    else:
        for name in SOLVERS:
            monkeypatch.setitem(SOLVERS, name, never)
        monkeypatch.setattr(gsp.cli, "gen_stokes_channel_detailed", never)
        monkeypatch.setattr(gsp.cli, "gen_random", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        if where == "empty":  # abspath reads "" as the working directory; makedirs cannot make it
            monkeypatch.chdir(tmp_path)
            out = ""
            expected = "output directory is an empty path"
        else:
            out = blocker if where == "existing-file" else blocker / "out"
            expected = f"output directory {out} cannot be created: {blocker} is not a directory"
    if verb == "gen":
        kind = ["random", "--m", "10", "--n", "5"] if where == "empty" else [
            "stokes", "--nx", "4", "--ny", "4"]
        argv = ["gen", *kind, "-o", str(out)]
    else:
        argv = [verb, write_manifest(tmp_path / "m.json", problem=RANDOM,
                                     solvers=["craig", "scr-cg"], output_dir=str(out))]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"gsp: error: {expected}\n"
    if where.endswith("-is-a-directory"):
        assert not any(blocker.iterdir())
    elif where == "disk-full":
        assert not (out / "summary.csv").exists() and not (out / "compare.csv").exists()
    else:
        assert blocker.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["file"] + (["m.json"] if verb != "gen" else []))


def test_run_exits_2_when_b_is_outside_the_range_of_a_transpose(tmp_path, inconsistent_system):
    save_system(tmp_path / "sys", inconsistent_system)
    manifest = write_manifest(tmp_path / "m.json", solvers=list(SOLVERS),
                              problem={"source": "load", "path": str(tmp_path / "sys/system.json")})
    assert main(["run", manifest]) == 2
    rows = csv.DictReader((tmp_path / "out/summary.csv").read_text().splitlines())
    assert [row["termination"] for row in rows] == ["breakdown"] * len(SOLVERS)


def test_run_refuses_an_m_outside_nscraigs_hypotheses(tmp_path, capsys):
    # M's symmetric part is indefinite, so alpha^2 = w . M w can be no squared norm: one error
    # line and exit 1, where reading it as 0 ended the run in breakdown with exit 2.
    save_system(tmp_path / "sys", indefinite_m_system())
    manifest = write_manifest(tmp_path / "m.json", solvers=["nscraig"],
                              problem={"source": "load", "path": str(tmp_path / "sys/system.json")})
    assert main(["run", manifest]) == 1
    assert re.fullmatch(r"gsp: error: blkdiag\(M, C\) is not positive definite: "
                        r"squared norm -\S+\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_outputs_deterministic_across_runs(tmp_path):
    doc = {
        "problem": {"source": "generate-random", "m": 14, "n": 7, "c_rank": 3,
                    "seed": 11, "skew_strength": 0.5},
        "solvers": ["nscraig", "pgmres"],
    }
    m1 = write_manifest(tmp_path / "m1.json", output_dir=str(tmp_path / "o1"), **doc)
    m2 = write_manifest(tmp_path / "m2.json", output_dir=str(tmp_path / "o2"), **doc)
    assert main(["run", m1]) == 0
    assert main(["run", m2]) == 0
    for name in ("nscraig_history.csv", "pgmres_history.csv"):
        a = (tmp_path / "o1" / name).read_text().splitlines()
        b = (tmp_path / "o2" / name).read_text().splitlines()
        # identical except the wall-time column
        strip = lambda lines: [",".join(ln.split(",")[:-1]) for ln in lines]
        assert strip(a) == strip(b)


class TestGen:
    def test_gen_random_writes_loadable_system(self, tmp_path, capsys):
        out = tmp_path / "sys"
        assert main(["gen", "random", "--m", "10", "--n", "5", "--seed", "2",
                     "--skew", "0.4", "-o", str(out)]) == 0
        manifest = write_manifest(
            tmp_path / "m.json",
            problem={"source": "load", "path": str(out / "system.json")},
            solvers=["nscraig", "pgmres"],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["compare", manifest]) == 0

    def test_gen_stokes(self, tmp_path):
        out = tmp_path / "stokes"
        assert main(["gen", "stokes", "--nx", "4", "--ny", "4", "-o", str(out)]) == 0
        doc = json.loads((out / "system.json").read_text())
        assert sorted(doc) == ["a_file", "b_file", "c_file", "m_file"]  # no "symmetric" key

    def test_bad_usage_exits_1(self, capsys):
        assert main(["gen", "random", "--m", "10"]) == 1  # missing required flags
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv, fragment", [
        (["stokes", "--nx", "4", "--ny", "4", "--viscosity", "-1"],
         "bad stokes problem spec: viscosity must be positive"),
        (["random", "--m", "5", "--n", "10"], "bad random problem spec: need 1 <= n <= m"),
        (["stokes", "--nx", "4", "--ny", "4", "--oseen-wind", "bogus"],
         "bad stokes problem spec: unknown wind selector 'bogus'"),
        (["random", "--m", str(10**30), "--n", "5"],
         "bad random problem spec: m must be at most 5000"),
        (["stokes", "--nx", str(10**21), "--ny", "4"],
         f"bad stokes problem spec: grid nx={10**21}, ny=4 has m + n = "),
        (["stokes", "--nx", "40000", "--ny", "40000"],
         "bad stokes problem spec: grid nx=40000, ny=40000 has m + n = 4799919999 unknowns"),
        # Each flag's value is type-checked by the spec, as a manifest's value is.
        (["random", "--m", "10", "--n", "5", "--c-rank", "-5"],
         "bad random problem spec: c_rank must be in [0, n]"),
        (["random", "--m", "10", "--n", "5", "--c-rank", "-1"],
         "bad random problem spec: c_rank must be in [0, n]"),
        (["random", "--m", "10", "--n", "5", "--seed", "1.5"],
         "bad random problem spec: 'seed' must be an integer, got 1.5"),
        (["random", "--m", "10", "--n", "5", "--density", "nan"],
         "bad random problem spec: 'density' must be finite, got nan"),
    ], ids=["viscosity-negative", "n-above-m", "unknown-wind", "m-huge", "nx-huge",
            "grid-40000", "c-rank-negative", "c-rank-minus-one", "seed-not-integer",
            "density-nan"])
    def test_refused_spec_exits_1_without_traceback(self, tmp_path, capsys, argv, fragment):
        out = tmp_path / "sys"
        assert main(["gen", *argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gsp: error: ") and err.count("\n") == 1 and fragment in err
        assert not out.exists()

    def test_random_flags_are_the_spec_fields(self, tmp_path):
        # --spectrum takes LO HI; c_rank keeps the spec's default, 0, as in a manifest.
        out = tmp_path / "sys"
        assert main(["gen", "random", "--m", "12", "--n", "6", "--density", "0.5", "--spectrum",
                     "2", "3", "--skew-strength", "0.25", "--seed", "4", "-o", str(out)]) == 0
        want = gen_random(RandomSpec(m=12, n=6, density=0.5, spectrum=(2.0, 3.0),
                                     skew_strength=0.25, seed=4))
        got = load_system(str(out / "system.json"))
        for block in ("Mmat", "A", "C"):
            assert np.array_equal(np.asarray(getattr(got, block)),
                                  np.asarray(getattr(want, block)))
        assert np.array_equal(got.b, want.b) and got.symmetric is False
        assert got.C.nnz == 0

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_help_lists_exactly_the_spec_fields(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            main(["gen", kind, "-h"])
        assert exc.value.code == 0
        flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
        assert flags == ["--" + f.name.replace("_", "-") for f in dataclasses.fields(SPECS[kind])]

    def test_a_new_spec_field_gets_its_flag(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class PinnedStokesSpec(StokesSpec):
            pin_cell: int = 0

        monkeypatch.setitem(SPECS, "stokes", PinnedStokesSpec)
        args = make_parser().parse_args(["gen", "stokes", "--nx", "4", "--ny", "4",
                                         "--pin-cell", "3", "-o", "out"])
        assert (args.nx, args.ny, args.pin_cell) == (4, 4, 3)


def test_run_that_fails_to_write_keeps_the_older_outputs_intact(tmp_path, capsys):
    out = tmp_path / "out"
    first = write_manifest(tmp_path / "m1.json", problem=RANDOM, solvers=["craig", "scr-cg"],
                           output_dir=str(out))
    assert main(["run", first]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["craig_history.csv", "scr-cg_history.csv", "summary.csv"]
    (out / "nscraig_history.csv").mkdir()  # the second run's last history cannot land
    second = write_manifest(tmp_path / "m2.json", problem=RANDOM,
                            solvers=["craig", "scr-cg", "nscraig"], output_dir=str(out),
                            config={"max_iterations": 2})
    assert main(["run", second]) == 1
    blocker = out / "nscraig_history.csv"
    assert capsys.readouterr().err == f"gsp: error: cannot write {blocker}: Is a directory\n"
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert after == before and sorted(p.name for p in out.iterdir()) == sorted(
        [*before, "nscraig_history.csv"])


@pytest.mark.parametrize("verb", ["run", "gen"])
def test_failed_write_names_the_output_file_not_its_staged_copy(tmp_path, capsys, monkeypatch,
                                                                 verb):
    def full(path, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    out = tmp_path / "out"
    if verb == "gen":
        monkeypatch.setattr(gsp.mmio, "write_vector", full)
        argv, name = ["gen", "random", "--m", "10", "--n", "5", "-o", str(out)], "b.mtx"
    else:
        monkeypatch.setattr(gsp.cli, "_write_lines", full)
        argv = ["run", write_manifest(tmp_path / "m.json", problem=RANDOM, solvers=["craig"],
                                      output_dir=str(out))]
        name = "craig_history.csv"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"gsp: error: cannot write {out / name}: {os.strerror(errno.ENOSPC)}\n"
    assert list(out.iterdir()) == []
