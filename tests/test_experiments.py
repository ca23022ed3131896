import csv

import numpy as np
import pytest

from scaledgd import experiments
from scaledgd.experiments import (PRESETS, SENTINEL_ITERS, SWEEP_COLUMNS,
                                  TRAJECTORY_COLUMNS, SweepSpec, emit_csv,
                                  fit_loglog_slope, minimax_reference,
                                  preset_spec, run_sweep)
from scaledgd.problem import make_ground_truth
from scaledgd.sensing import gaussian_operator, measure
from scaledgd.solver import DivergenceError, SolverConfig, StoppingRule, run


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


def _one_at_a_time(op, y, configs, oracle=None):
    # run_batch's contract, one configuration at a time through run()
    out = []
    for config in configs:
        try:
            out.append(run(op, y, config, oracle=oracle))
        except DivergenceError as exc:
            out.append(exc.trajectory)
    return out


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
