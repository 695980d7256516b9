"""CLI harness: manifests, histories, summaries, comparison tables."""

import csv
import json

import pytest

from gsp import save_system
from gsp.cli import RunManifest, UsageError, main


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
        ({"problem": RANDOM, "solvers": ["craig"],
          "config": {"criterion": {"error-estimate": 2, "x": 1}}}, "exactly one entry"),
        ({"problem": dict(RANDOM, spectrum=5), "solvers": ["craig"]}, "bad random problem spec"),
        ({"problem": RANDOM, "solvers": "craig"}, "'solvers' must be a JSON array"),
        ({"problem": RANDOM, "solvers": [["craig"]]}, "unknown solvers"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"tolerance": None}}, "bad config"),
        # open(0) would read a system manifest from stdin.
        ({"problem": {"source": "load", "path": 0}, "solvers": ["craig"]}, "string 'path'"),
        ({"problem": {"source": "load"}, "solvers": ["craig"]}, "string 'path'"),
        # float(True) is 1.0 and int(2.9) is 2: wrong-kind numbers must not run.
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"tolerance": True}},
         "'tolerance' must be a JSON number, got True"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"max_iterations": 2.9}},
         "'max_iterations' must be a JSON integer, got 2.9"),
        ({"problem": RANDOM, "solvers": ["craig"], "config": {"max_iterations": False}},
         "'max_iterations' must be a JSON integer, got False"),
        ({"problem": RANDOM, "solvers": ["craig"],
          "config": {"criterion": {"error-estimate": 2.0}}},
         "'error_delay' must be a JSON integer"),
        ({"problem": dict(RANDOM, m=10.0), "solvers": ["craig"]},
         "bad random problem spec: 'm' must be a JSON integer, got 10.0"),
        ({"problem": dict(RANDOM, density="1"), "solvers": ["craig"]},
         "'density' must be a JSON number, got '1'"),
        ({"problem": dict(RANDOM, spectrum=[1, True]), "solvers": ["craig"]},
         "'spectrum' must be a JSON number, got True"),
        ({"problem": {"source": "generate-stokes", "nx": 4.9, "ny": 4}, "solvers": ["craig"]},
         "bad stokes problem spec: 'nx' must be a JSON integer, got 4.9"),
        ({"problem": {"source": "generate-stokes", "nx": 4, "ny": 4, "viscosity": True},
          "solvers": ["craig"]}, "'viscosity' must be a JSON number, got True"),
    ], ids=["top-level-array", "problem-string", "config-array", "criterion-two-entries",
            "spectrum-number", "solvers-string", "solver-array", "tolerance-null",
            "load-path-number", "load-path-missing", "tolerance-true", "max-iterations-float",
            "max-iterations-false", "error-delay-float", "m-float", "density-string",
            "spectrum-entry-true", "nx-float", "viscosity-true"])
    def test_malformed_manifest_is_refused_without_traceback(self, tmp_path, capsys, doc,
                                                             fragment):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gsp: error: ") and err.count("\n") == 1 and fragment in err

    @pytest.mark.parametrize("value", ["false", 0, None], ids=["string-false", "zero", "null"])
    @pytest.mark.parametrize("key", ["reorthogonalize", "report_error_vs_oracle"])
    def test_non_boolean_flag_is_refused(self, tmp_path, capsys, key, value):
        # bool("false") is True: a non-boolean flag must not switch anything on.
        doc = {"problem": RANDOM, "solvers": ["craig"], "output_dir": str(tmp_path / "out")}
        if key == "reorthogonalize":
            doc["config"] = {key: value}
        else:
            doc[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UsageError, match=f"'{key}' must be true or false"):
            RunManifest.from_file(str(path))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gsp: error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_boolean_flags_load_as_given(self, tmp_path):
        path = tmp_path / "m.json"
        for flag in (True, False):
            path.write_text(json.dumps({"problem": RANDOM, "solvers": ["craig"],
                                        "config": {"reorthogonalize": flag},
                                        "report_error_vs_oracle": flag}))
            manifest = RunManifest.from_file(str(path))
            assert manifest.config.reorthogonalize is flag
            assert manifest.report_error_vs_oracle is flag

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


def test_error_estimate_criterion_in_manifest(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.json",
        problem={"source": "generate-random", "m": 16, "n": 8, "c_rank": 4, "seed": 6},
        solvers=["craig"],
        config={"tolerance": 1e-6, "criterion": {"error-estimate": 3}},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", manifest]) == 0
    rows = read_history(tmp_path / "out", "craig")
    assert any(r["err_est"] for r in rows)


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
        assert doc["symmetric"] is True

    def test_bad_usage_exits_1(self, capsys):
        assert main(["gen", "random", "--m", "10"]) == 1  # missing required flags
        assert main(["frobnicate"]) == 1
