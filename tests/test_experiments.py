import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scaledgd import experiments
from scaledgd.experiments import (PRESETS, SENTINEL_ITERS, SWEEP_COLUMNS,
                                  TRAJECTORY_COLUMNS, SweepSpec, emit_csv,
                                  fit_loglog_slope, minimax_reference,
                                  point_config, preset_spec, run_point, run_sweep)
from scaledgd.problem import make_ground_truth
from scaledgd.sensing import gaussian_operator, measure
from scaledgd.solver import SolverConfig, StoppingRule, run


def test_minimax_reference_values():
    assert minimax_reference(0.0, 150, 3) == 0.0
    assert minimax_reference(1.0, 4, 1) == 2.0
    assert minimax_reference(0.1, 150, 3) == pytest.approx(0.1 * np.sqrt(450))
    assert minimax_reference(0.1, 150, 3) == pytest.approx(2.1213203435596424)


def test_loglog_slope_exact_cases():
    slope, intercept, r2 = fit_loglog_slope([(1.0, 2.0), (10.0, 20.0), (100.0, 200.0)])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(2.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, _, _ = fit_loglog_slope([(1.0, 5.0), (100.0, 5.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, _, _ = fit_loglog_slope([(1.0, 1.0), (2.0, 8.0), (4.0, 64.0)])
    assert slope == pytest.approx(3.0, abs=1e-12)


def test_loglog_slope_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0), (-2.0, 3.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 0.0), (2.0, 3.0)])


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(axis="bogus", values=(1,))
    with pytest.raises(ValueError):
        SweepSpec(axis="kappa", values=())
    with pytest.raises(ValueError):
        SweepSpec(axis="kappa", values=(2, 1))
    with pytest.raises(ValueError):
        SweepSpec(axis="kappa", values=(1, 2), target_rel_err=None)
    with pytest.raises(ValueError, match="trials"):
        SweepSpec(axis="kappa", values=(1, 2), trials=0)
    with pytest.raises(ValueError, match="lam"):
        SweepSpec(axis="kappa", values=(1, 2), lam="bogus")
    spec = SweepSpec(axis="kappa", values=(1, 2))
    assert spec.measurements == 10 * 60 * 3
    assert SweepSpec(axis="kappa", values=(1,), m=500).measurements == 500


def test_presets_resolve():
    for name in PRESETS:
        spec = preset_spec(name)
        assert spec.axis in ("kappa", "alpha", "rank_r", "noise_sigma")
    assert preset_spec("ci-small", trials=2).trials == 2
    with pytest.raises(ValueError):
        preset_spec("nope")


def _tiny_kappa_spec(**overrides):
    kwargs = dict(axis="kappa", values=(1.0, 3.0), n=20, r_star=2, r=3,
                  alpha=1e-12, target_rel_err=1e-6, max_iters=600,
                  gd_tuning=(0.3,), gd_max_iters=600, trials=2, master_seed=7)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_kappa_sweep_shape_and_convergence():
    records = run_sweep(_tiny_kappa_spec())
    # per (kappa, trial): one scaled_gd_lambda record and one tuned gd record
    assert len(records) == 2 * 2 * 2
    scaled = [r for r in records if r.algorithm == "scaled_gd_lambda"]
    assert all(r.stop_reason == "target_reached" for r in scaled)
    assert all(r.iters_to_target > 0 for r in scaled)
    assert all(r.final_rel_err_fro <= 1e-6 for r in scaled)


def test_kappa_sweep_gd_skipped_when_grid_empty():
    records = run_sweep(_tiny_kappa_spec(gd_tuning=()))
    assert all(r.algorithm == "scaled_gd_lambda" for r in records)


def test_sweep_deterministic_and_trial_stable():
    a = run_sweep(_tiny_kappa_spec())
    b = run_sweep(_tiny_kappa_spec())
    for ra, rb in zip(a, b):
        assert (ra.axis_value, ra.trial, ra.algorithm) == (rb.axis_value, rb.trial, rb.algorithm)
        assert ra.iters_to_target == rb.iters_to_target
        assert ra.final_rel_err_fro == rb.final_rel_err_fro
        assert ra.stop_reason == rb.stop_reason
    # adding a trial never perturbs existing (axis_value, trial) results
    c = run_sweep(_tiny_kappa_spec(trials=3))
    keyed = {(r.axis_value, r.trial, r.algorithm): r for r in c}
    for ra in a:
        rc = keyed[(ra.axis_value, ra.trial, ra.algorithm)]
        assert rc.iters_to_target == ra.iters_to_target
        assert rc.final_rel_err_fro == ra.final_rel_err_fro


def test_alpha_sweep_error_tracks_alpha():
    spec = SweepSpec(axis="alpha", values=(1e-10, 1e-6), n=20, r_star=2, r=3,
                     target_rel_err=None, patience=60, max_iters=1500,
                     trials=1, master_seed=3)
    records = run_sweep(spec)
    assert len(records) == 2
    assert all(r.stop_reason in ("patience", "max_iters") for r in records)
    assert all(r.iters_to_target == SENTINEL_ITERS for r in records)
    # smaller init scale lands at a smaller final error
    assert records[0].final_rel_err_fro < records[1].final_rel_err_fro


def test_alpha_sweep_ignores_target():
    # the alpha sweep stops on patience alone, even when the spec sets a
    # target its runs would reach
    spec = SweepSpec(axis="alpha", values=(1e-10, 1e-6), n=20, r_star=2, r=3,
                     target_rel_err=1e-2, patience=60, max_iters=1500,
                     trials=1, master_seed=3)
    assert spec.target_rel_err is None
    records = run_sweep(spec)
    assert len(records) == 2
    assert all(r.stop_reason in ("patience", "max_iters") for r in records)
    assert all(r.iters_to_target == SENTINEL_ITERS for r in records)
    assert all(r.final_rel_err_fro < 1e-2 for r in records)


def test_alpha_sweep_requires_patience():
    with pytest.raises(ValueError, match="patience"):
        SweepSpec(axis="alpha", values=(1e-8, 1e-6), n=20, r_star=2, r=3,
                  target_rel_err=1e-6)


def test_rank_sweep_runs_both_algorithms():
    # desk scale: the sampled isometry constant at n = 20 leaves a floor
    # around 1e-6, so the unit test uses a looser target than the presets
    spec = SweepSpec(axis="rank_r", values=(2, 4), n=20, r_star=2,
                     alpha=1e-12, target_rel_err=1e-5, max_iters=600,
                     trials=1, master_seed=5)
    records = run_sweep(spec)
    algos = sorted({r.algorithm for r in records})
    assert algos == ["prec_gd", "scaled_gd_lambda"]
    assert len(records) == 4
    scaled = [r for r in records if r.algorithm == "scaled_gd_lambda"]
    assert all(r.stop_reason == "target_reached" for r in scaled)


def test_noise_sweep_floor():
    spec = SweepSpec(axis="noise_sigma", values=(1e-3, 1e-2), n=20, r_star=2,
                     r=3, alpha=1e-12, target_rel_err=None, patience=80,
                     max_iters=1000, trials=1, master_seed=9)
    records = run_sweep(spec)
    assert len(records) == 2
    # larger noise leaves a larger floor
    assert records[1].final_rel_err_fro > records[0].final_rel_err_fro


def test_wrong_axis_dispatch():
    from scaledgd.experiments import sweep_condition_number, sweep_noise
    spec = _tiny_kappa_spec()
    with pytest.raises(ValueError):
        sweep_noise(spec)
    noise_spec = SweepSpec(axis="noise_sigma", values=(0.1, 0.2), patience=10)
    with pytest.raises(ValueError):
        sweep_condition_number(noise_spec)


# per sweep_* wrapper, a spec of its axis at tiny settings
_TINY_SWEEPS = {
    "sweep_condition_number": _tiny_kappa_spec(trials=1, max_iters=200, gd_max_iters=200),
    "sweep_init_scale": SweepSpec(axis="alpha", values=(1e-10, 1e-6), n=12, r_star=2, r=3,
                                  target_rel_err=None, patience=20, max_iters=200,
                                  trials=1),
    "sweep_overparam_rank": SweepSpec(axis="rank_r", values=(2, 3), n=12, r_star=2,
                                      target_rel_err=1e-5, max_iters=200, trials=1),
    "sweep_noise": SweepSpec(axis="noise_sigma", values=(1e-3,), n=12, r_star=2, r=3,
                             target_rel_err=None, patience=20, max_iters=200, trials=1),
}


@pytest.mark.parametrize("name", sorted(_TINY_SWEEPS))
def test_sweep_paths_give_the_same_rows(name):
    # run_sweep, the axis's sweep_* and sweep_rows are one path: equal rows
    # bar the timing column
    spec = _TINY_SWEEPS[name]

    def untimed(rows):
        return [replace(row, wall_ms=0.0) for row in rows]
    rows = untimed(run_sweep(spec))
    assert rows and all(np.isfinite(row.final_rel_err_fro) for row in rows)
    assert untimed(getattr(experiments, name)(spec)) == rows
    assert untimed(experiments.sweep_rows(spec)) == rows


def test_emit_csv_sweep_roundtrip(tmp_path):
    records = run_sweep(_tiny_kappa_spec(trials=1))
    path = tmp_path / "sweep.csv"
    emit_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SWEEP_COLUMNS)
    assert len(rows) == len(records) + 1
    for rec, row in zip(records, rows[1:]):
        assert row[0] == "kappa"
        assert float(row[1]) == rec.axis_value
        assert int(row[2]) == rec.trial
        assert row[3] == rec.algorithm
        assert int(row[4]) == rec.iters_to_target
        assert float(row[5]) == pytest.approx(rec.final_rel_err_fro)
        assert row[7] == rec.stop_reason


def test_emit_csv_trajectory(tmp_path):
    gt = make_ground_truth(15, 2, 2, seed=1)
    op = gaussian_operator(15, 300, seed=2)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=0.01,
                       alpha=1e-9, max_iters=40, stop=StoppingRule(patience=500),
                       record_every=10)
    traj = run(op, y, cfg, oracle=gt, collect_diagnostics=True)
    path = tmp_path / "traj.csv"
    emit_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRAJECTORY_COLUMNS)
    assert [int(r[0]) for r in rows[1:]] == [0, 10, 20, 30, 40]
    first = rows[1]
    assert float(first[1]) > 0          # loss
    assert float(first[4]) >= 0         # sigma_min_scaled present
    # no diagnostics -> metric columns are empty, not zero
    traj2 = run(op, y, cfg, oracle=gt)
    path2 = tmp_path / "traj2.csv"
    emit_csv(traj2, path2)
    with open(path2, newline="") as fh:
        rows2 = list(csv.reader(fh))
    assert rows2[1][4] == ""


def test_emit_csv_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(SWEEP_COLUMNS)]


def test_emit_csv_bad_path():
    with pytest.raises(OSError):
        emit_csv([], "/nonexistent-dir-xyz/out.csv")


def test_diverged_row_has_sentinel_fields():
    # GD at eta = 50 blows up; its row has the sentinel iteration count and
    # NaN errors
    spec = SweepSpec(axis="kappa", values=(2,), n=10, gd_tuning=(50.0,),
                     max_iters=200, trials=1)
    scaled, gd = run_sweep(spec)
    assert scaled.stop_reason == "target_reached"
    assert gd.stop_reason == "diverged"
    assert gd.iters_to_target == SENTINEL_ITERS
    assert np.isnan(gd.final_rel_err_fro) and np.isnan(gd.final_rel_err_op)


def _one_at_a_time(op, y, configs, oracle=None, collect_diagnostics=False):
    # run_batch's contract, one configuration at a time through run()
    return [run(op, y, config, oracle, collect_diagnostics) for config in configs]


@pytest.mark.parametrize("spec", [
    SweepSpec(axis="kappa", values=(1, 5), n=20, r_star=2, r=4, max_iters=500,
              gd_tuning=(0.2, 0.4, 0.6), gd_max_iters=300, trials=1),
    SweepSpec(axis="rank_r", values=(3, 8), n=20, r_star=2, max_iters=500,
              trials=1),
    SweepSpec(axis="kappa", values=(2,), n=10, gd_tuning=(50.0,),
              max_iters=200, trials=1),
], ids=["kappa", "rank", "diverging-gd"])
def test_point_rows_match_runs_alone(monkeypatch, spec):
    # a point's runs advance in lockstep; each row is what the run gives alone
    batched = run_sweep(spec)
    monkeypatch.setattr(experiments, "run_batch", _one_at_a_time)
    alone = run_sweep(spec)
    assert len(batched) == len(alone)
    for b, a in zip(batched, alone):
        assert (b.axis_value, b.algorithm, b.stop_reason, b.iters_to_target) == \
            (a.axis_value, a.algorithm, a.stop_reason, a.iters_to_target)
        for got, want in ((b.final_rel_err_fro, a.final_rel_err_fro),
                          (b.final_rel_err_op, a.final_rel_err_op)):
            assert abs(got - want) <= 1e-12 or (np.isnan(got) and np.isnan(want))


def test_run_point_checks_instance_rules_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("the truth was drawn")
    monkeypatch.setattr(experiments, "make_ground_truth", no_draw)
    spec = SweepSpec(axis="kappa", values=(0,), n=10, r_star=2, r=14,
                     target_rel_err=None, patience=5, trials=1)
    cfg = point_config(spec, 0)
    with pytest.raises(ValueError, match="^r exceeds ambient dimension$"):
        run_point(spec, 0, [cfg, replace(cfg, init="spectral")])
    with pytest.raises(ValueError, match=re.escape("diagnostics need r >= r* = 2, got r = 1")):
        run_point(spec, 0, [replace(cfg, r=1)], collect_diagnostics=True)
    monkeypatch.undo()
    # a small random init takes any r
    [(_, traj)] = run_point(spec, 0, [cfg])
    assert traj.stop_reason == "patience"


# One ci-small point (kappa = 7, master seed 3, GD capped at 200 iterations)
# run by run_sweep; a spy on run_batch hashes the instance run_point drew.
_THREADS_SCRIPT = """
import hashlib, json
from scaledgd import experiments
hashes = []
def spy(op, y, configs, oracle, **kwargs):
    digest = hashlib.sha256()
    for part in (oracle.frame, oracle.scales, *map(op.row_svec, range(op.m)), y):
        digest.update(part.tobytes())
    hashes.append(digest.hexdigest())
    return run_batch(op, y, configs, oracle=oracle, **kwargs)
run_batch, experiments.run_batch = experiments.run_batch, spy
spec = experiments.preset_spec("ci-small", values=(7,), master_seed=3, gd_max_iters=200)
scaled = experiments.run_sweep(spec)[0]
print(json.dumps([hashes, [scaled.algorithm, scaled.stop_reason, scaled.iters_to_target]]))
"""


def test_instance_and_scaled_gd_counts_do_not_depend_on_blas_threads():
    # README "Reproducibility": the truth, the operator rows and y are bit for
    # bit the same at 1 and 2 BLAS threads, and so are ScaledGD(lambda)'s stop
    # reason and iteration count; GD's counts may differ, so they are not read
    src = str(Path(__file__).resolve().parent.parent / "src")
    results = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src,
                                   "OPENBLAS_NUM_THREADS": threads,
                                   "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    (hashes_1, scaled_1), (hashes_2, scaled_2) = results
    assert len(hashes_1) == 1 and hashes_1 == hashes_2
    assert scaled_1[:2] == ["scaled_gd_lambda", "target_reached"]
    assert scaled_1 == scaled_2
