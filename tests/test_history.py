"""History: the columnar per-step record of every solver."""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

import gsp.baselines
import gsp.nscraig
from conftest import random_system
from gsp import (
    ConvergenceRecord,
    History,
    SaddleSystem,
    SolverConfig,
    SparseMatrix,
    craig_error_estimate,
    craig_solve,
    nscraig_solve,
)
from gsp.cli import SOLVERS, main, write_history_csv
from gsp.errors import NonFiniteError
from gsp.system import HISTORY_FIELDS

RECORDS = [
    ConvergenceRecord(1, 0.5, None, 2.0, 3.0, -1.0, 0.25),
    ConvergenceRecord(2, 0.125, 1e-3, 1.5, -0.0, 4.0, 0.5),
    ConvergenceRecord(3, 1e-300, 2.0, None, None, None, 0.75),
    ConvergenceRecord(4, 0.0, math.inf, 5e-324, 1e308, -2.5),
]


def as_tuple(rec):
    return (rec.k,) + tuple(getattr(rec, name) for name in HISTORY_FIELDS)


class TestSequence:
    def test_round_trip_of_every_field(self):
        h = History(RECORDS)
        assert [as_tuple(r) for r in h] == [as_tuple(r) for r in RECORDS]
        assert math.copysign(1.0, h[1].beta_next) == -1.0  # -0.0 keeps its sign
        assert h[3].wall_time_s == 0.0

    def test_repr_counts_steps(self):
        assert repr(History()) == "History(0 steps)"
        assert repr(History(RECORDS)) == "History(4 steps)"

    def test_none_is_stored_as_nan(self):
        h = History(RECORDS)
        columns = {name: h.column(name) for name in HISTORY_FIELDS}
        assert all(c.shape == (4,) and c.dtype == np.float64 for c in columns.values())
        assert np.isnan(columns["err_est"][0])
        assert all(np.isnan(columns[name][2]) for name in HISTORY_FIELDS[2:5])
        assert sum(np.isnan(c).sum() for c in columns.values()) == 4

    def test_indices_slices_and_iteration(self):
        h = History(RECORDS)
        assert len(h) == 4 and h
        assert as_tuple(h[-1]) == as_tuple(RECORDS[-1]) and h[-4].k == 1
        assert h[np.int64(2)].k == 3
        for index in (4, -5):
            with pytest.raises(IndexError):
                h[index]
        for window in (slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 9)):
            assert [as_tuple(r) for r in h[window]] == [as_tuple(r) for r in RECORDS[window]]
        assert [r.k for r in reversed(h)] == [4, 3, 2, 1]

    def test_records_are_built_on_read(self):
        h = History(RECORDS)
        h[0].scalar = 99.0
        assert h[0].scalar == -1.0

    def test_steps_must_come_in_order(self):
        h = History(RECORDS[:1])
        with pytest.raises(ValueError, match="step 3 recorded after step 1"):
            h.append(RECORDS[2])
        with pytest.raises(ValueError):
            History().append(RECORDS[1])
        assert len(h) == 1

    def test_columns(self):
        h = History(RECORDS)
        scalars = h.column("scalar")
        assert scalars.flags.c_contiguous and scalars.dtype == np.float64
        assert np.array_equal(scalars, [-1.0, 4.0, np.nan, -2.5], equal_nan=True)
        assert h.values("alpha") == [2.0, 1.5, None, 5e-324]
        assert History().column("res_rel").shape == (0,) and History().values("alpha") == []

    def test_zero_step_run_is_empty_and_falsy(self):
        # A = 0 and C = 0: alpha_1 vanishes, so the run ends before recording a step.
        sys = random_system(8, 4, seed=26)
        sys0 = SaddleSystem(sys.M, SparseMatrix.zeros(8, 4), SparseMatrix.zeros(4, 4), sys.b)
        for solve in (craig_solve, nscraig_solve):
            res = solve(sys0, None, None)
            assert isinstance(res.history, History)
            assert not res.history and len(res.history) == 0 and list(res.history) == []
            assert res.history[:] == [] and res.alphas == res.scalars == []
            assert res.betas == [res.beta1]
            with pytest.raises(IndexError):
                res.history[-1]


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_records_steps_one_to_k_in_order(name):
    sys = random_system(24, 12, c_rank=6, seed=81)
    res = SOLVERS[name](sys, None, SolverConfig(tolerance=1e-10))
    assert isinstance(res.history, History) and res.iterations > 3
    assert [rec.k for rec in res.history] == list(range(1, res.iterations + 1))
    times = res.history.column("wall_time_s")
    assert (np.diff(times) >= 0.0).all()


def test_fields_solvers_leave_unrecorded_read_back_as_none():
    sys = random_system(24, 12, c_rank=6, seed=82)
    d = 3
    cfg = SolverConfig(tolerance=1e-10, criterion="both", error_delay=d)
    for solve in (craig_solve, nscraig_solve):
        res = solve(sys, None, cfg)
        assert all(rec.err_est is None for rec in res.history[: d - 1])
        assert all(isinstance(rec.err_est, float) for rec in res.history[d - 1:])
        assert all(isinstance(x, float) for x in res.alphas + res.betas + res.scalars)
    res = SOLVERS["scr-cg"](sys, None, SolverConfig(tolerance=1e-10))
    for rec in res.history:
        assert rec.err_est is rec.alpha is rec.beta_next is rec.scalar is None
        assert isinstance(rec.res_rel, float)
    assert res.alphas == res.scalars == [None] * res.iterations


def test_a_nan_err_est_is_refused_as_it_would_read_back_as_none():
    cfg = SolverConfig(criterion="both")
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFiniteError, match=f"err_est is {bad} at iteration 4"):
            cfg.stop(4, 0.5, False, bad)
    assert cfg.stop(4, 0.5, False, None) is None and cfg.stop(4, 0.5, False, 0.5) is None


def test_craig_err_est_matches_the_reference_estimate_bit_for_bit():
    sys = random_system(60, 30, c_rank=15, seed=83, spectrum=(1.0, 50.0))
    d = 4
    res = craig_solve(sys, None, SolverConfig(tolerance=1e-12, criterion="both", error_delay=d))
    assert res.iterations > 2 * d
    for k in range(d, res.iterations + 1):
        ref = math.sqrt(abs(craig_error_estimate(res.scalars, k, d)))
        assert res.history[k - 1].err_est == ref, k


@pytest.mark.parametrize("solver, module", [("craig", gsp.nscraig), ("scr-cg", gsp.baselines)])
def test_history_csv_is_the_one_the_record_list_gives(tmp_path, monkeypatch, solver, module):
    """gsp run's CSV equals the one written from the list of records the loop built."""
    built = []
    record = module.ConvergenceRecord

    def kept(*args, **kwargs):
        built.append(record(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, "ConvergenceRecord", kept)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "problem": {"source": "generate-random", "m": 30, "n": 15, "c_rank": 7, "seed": 84},
        "solvers": [solver], "config": {"tolerance": 1e-10, "criterion": "relative-residual"},
        "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(manifest)]) == 0
    assert len(built) > 5
    write_history_csv(tmp_path / "reference.csv", built)
    got = (tmp_path / "out" / f"{solver}_history.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()


def test_kept_nscraig_result_costs_at_most_64_bytes_a_step():
    sys = random_system(300, 240, skew=0.5, c_rank=120, seed=85)
    cfg = SolverConfig(tolerance=1e-300, max_iterations=220)
    nscraig_solve(sys, None, cfg)  # first-call imports and caches stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = nscraig_solve(sys, None, cfg)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.iterations >= 200
    per_step = (kept - res.u.nbytes - res.p.nbytes) / res.iterations
    assert per_step <= 64, f"{per_step:.1f} B per step"
