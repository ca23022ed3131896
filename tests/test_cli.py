import argparse
import csv
import os
import shlex
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from scaledgd import __version__
from scaledgd.cli import _spec_fields, _sweep_spec_from_config, build_parser, main
from scaledgd.experiments import (PRESETS, SWEEP_COLUMNS, TRAJECTORY_COLUMNS, SweepSpec,
                                  preset_spec, run_sweep)
from scaledgd.problem import make_ground_truth
from scaledgd.rng import derive_seed
from scaledgd.sensing import gaussian_operator, identity_operator, measure
from scaledgd.solver import estimate_damping


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_meta(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, value = line.split(" = ", 1)
            out[key] = value.rstrip("\n")
    return out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_run_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    rc = main(["run", "--n", "20", "--r-star", "2", "--r", "3", "--kappa", "2",
               "--alpha", "1e-12", "--target", "1e-6", "--max-iters", "500",
               "--seed", "1", "--out", out])
    assert rc == 0
    assert "stop=target_reached" in capsys.readouterr().out
    rows = _read_csv(out)
    assert rows[0] == list(TRAJECTORY_COLUMNS)
    assert float(rows[-1][2]) <= 1e-6   # final rel_err_fro
    meta = _read_meta(out + ".meta")
    assert meta["stop_reason"] == "target_reached"
    assert meta["algorithm"] == "scaled-gd-lambda"


def test_run_reproducible(tmp_path):
    args = ["run", "--n", "15", "--r-star", "2", "--r", "3", "--alpha", "1e-9",
            "--patience", "50", "--max-iters", "200", "--seed", "7"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    ra, rb = _read_csv(a), _read_csv(b)
    # identical up to wall-clock columns
    for row_a, row_b in zip(ra, rb):
        assert row_a[:-1] == row_b[:-1]


# by default and with --lambda auto, a run estimates lambda at r* as a sweep does
@pytest.mark.parametrize("extra", [[], ["--lambda", "auto"]])
def test_run_estimates_lambda_with_sweep_fraction(tmp_path, extra):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--n", "15", "--r-star", "2", "--r", "3", "--kappa", "3",
                 "--alpha", "1e-9", "--max-iters", "5", "--patience", "50",
                 "--seed", "4", "--out", out] + extra) == 0
    meta = _read_meta(out + ".meta")
    gt = make_ground_truth(15, 2, 3.0, derive_seed(4, 1))
    op = gaussian_operator(15, 10 * 15 * 2, derive_seed(4, 2))
    y = measure(op, gt, 0.0, derive_seed(4, 4)).y
    assert float(meta["damping_frac"]) == 0.05
    assert float(meta["lambda"]) == estimate_damping(op, y, 2, c_frac=0.05).lambda_hat


def test_only_scaled_gd_lambda_gets_the_auto_lambda(tmp_path, monkeypatch):
    # an auto lambda is estimated once per point that runs ScaledGD(lambda);
    # a run of another algorithm is undamped and estimates nothing
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate_damping(*args, **kwargs)
    monkeypatch.setattr("scaledgd.experiments.estimate_damping", counting)
    out = str(tmp_path / "t.csv")
    flags = ["--n", "20", "--r-star", "2", "--r", "3", "--patience", "50", "--out", out]
    assert main(["run", "--algorithm", "gd", *flags]) == 0
    meta = _read_meta(out + ".meta")
    assert (len(calls), meta["lambda"], meta["damping_frac"]) == (0, "0.0", "None")
    assert main(["run", *flags]) == 0
    meta = _read_meta(out + ".meta")
    assert (len(calls), meta["damping_frac"]) == (1, "0.05")
    assert float(meta["lambda"]) > 0
    calls.clear()
    run_sweep(SweepSpec(axis="kappa", values=(1, 2), n=12, r_star=2, r=3, max_iters=50,
                        gd_tuning=(0.2,), trials=1))
    assert len(calls) == 2


def test_run_preset_overridable(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    rc = main(["run", "--preset", "ci-small", "--n", "15", "--r-star", "2",
               "--r", "3", "--max-iters", "50", "--target", "1e-3",
               "--alpha", "1e-6", "--out", out])
    assert rc == 0
    meta = _read_meta(out + ".meta")
    assert meta["n"] == "15" and meta["max_iters"] == "50"


def test_run_rejects_negative_max_iters(tmp_path, capsys):
    assert main(["run", "--n", "10", "--r-star", "2", "--max-iters", "-1",
                 "--patience", "5", "--out", str(tmp_path / "t.csv")]) == 2
    assert "max_iters" in capsys.readouterr().err


# every setting of each preset, as preset_spec resolved it when each preset
# still restated SweepSpec's defaults; _PRESET_COMMON is what most share
_PRESET_COMMON = dict(n=60, r_star=3, r=5, kappa=2.0, m=None, eta=0.3, alpha=1e-27,
                      sigma=0.0, lam="auto", damping_frac=0.05, target_rel_err=1e-9,
                      patience=None, improve_tol=0.001, max_iters=2000, gd_max_iters=None,
                      gd_tuning=(0.05, 0.1, 0.2, 0.3, 0.5, 0.8), trials=1,
                      master_seed=0, record_every=1)
_PINNED_PRESET_SPECS = {
    "paper-fig1": dict(_PRESET_COMMON, axis="kappa", values=(1, 2, 3, 4, 5, 6, 7), n=150,
                       gd_max_iters=3000, gd_tuning=(0.2, 0.4, 0.6)),
    "ci-small": dict(_PRESET_COMMON, axis="kappa", values=(1, 2, 3, 4, 5, 6, 7),
                     max_iters=1500, gd_max_iters=1500, gd_tuning=(0.2, 0.4, 0.6)),
    "fig-alpha": dict(_PRESET_COMMON, axis="alpha", values=(1e-12, 1e-10, 1e-08, 1e-06),
                      damping_frac=0.25, target_rel_err=None, patience=100,
                      max_iters=3000),
    "fig-r": dict(_PRESET_COMMON, axis="rank_r", values=(3, 5, 10, 20), n=150,
                  max_iters=1500),
    "fig-noisy": dict(_PRESET_COMMON, axis="noise_sigma", values=(0.001, 0.01, 0.1), n=150,
                      target_rel_err=None, patience=200, max_iters=1500),
}


@pytest.mark.parametrize("preset", sorted(_PINNED_PRESET_SPECS))
def test_preset_settings_pinned(preset):
    spec = preset_spec(preset)
    assert {key: getattr(spec, key) for key in SweepSpec.__dataclass_fields__} == \
        _PINNED_PRESET_SPECS[preset]
    assert sorted(_PINNED_PRESET_SPECS) == sorted(PRESETS)


@pytest.fixture
def identity_instance(monkeypatch):
    """run_point draws the identity map in place of the Gaussian operator, so
    a run at a paper-scale preset stays cheap."""
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator",
                        lambda n, m, seed: identity_operator(n))


# the settings `run --preset` took from its own table before it read the
# sweep presets
_PINNED_RUN_PRESETS = {
    "paper-fig1": dict(n="150", r_star="3", r="5", eta="0.3", alpha="1e-27",
                       target="1e-09", max_iters="2000"),
    "ci-small": dict(n="60", r_star="3", r="5", eta="0.3", alpha="1e-27",
                     target="1e-09", max_iters="1500"),
}


@pytest.mark.parametrize("preset", sorted(_PINNED_RUN_PRESETS))
def test_run_preset_settings_pinned(tmp_path, identity_instance, preset):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", preset, "--record-every", "100", "--out", out]) == 0
    meta = _read_meta(out + ".meta")
    for key, value in _PINNED_RUN_PRESETS[preset].items():
        assert meta[key] == value, key
    assert meta["patience"] == "None" and meta["damping_frac"] == "0.05"
    assert meta["stop_reason"] == "target_reached"


@pytest.mark.parametrize("preset", ["fig-r", "fig-alpha"])
def test_run_preset_resolves_from_sweep_presets(tmp_path, identity_instance, preset):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", preset, "--record-every", "100", "--out", out]) == 0
    meta = _read_meta(out + ".meta")
    spec = preset_spec(preset)
    for key, field in (("n", "n"), ("r_star", "r_star"), ("r", "r"),
                       ("eta", "eta"), ("alpha", "alpha"),
                       ("target", "target_rel_err"), ("patience", "patience"),
                       ("max_iters", "max_iters"), ("damping_frac", "damping_frac")):
        assert meta[key] == str(getattr(spec, field)), key


def test_run_fig_alpha_preset_keeps_target(tmp_path, identity_instance, capsys):
    # the alpha axis drops its target, but a run is a kappa point: with the
    # fig-alpha preset, --target still stops it
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", "fig-alpha", "--n", "12", "--r-star", "2", "--r", "3",
                 "--target", "1e-6", "--out", out]) == 0
    assert "stop=target_reached" in capsys.readouterr().out
    meta = _read_meta(out + ".meta")
    assert meta["target"] == "1e-06" and meta["stop_reason"] == "target_reached"


def test_run_default_settings_pinned(tmp_path, identity_instance):
    # SweepSpec's defaults, with run's own: no target, 1500 iterations and a
    # patience of 100
    out = str(tmp_path / "t.csv")
    assert main(["run", "--out", out]) == 0
    meta = _read_meta(out + ".meta")
    want = dict(n="60", r_star="3", r="5", eta="0.3", alpha="1e-27",
                target="None", patience="100", max_iters="1500", sigma="0.0",
                improve_tol="0.001", record_every="1", damping_frac="0.05")
    for key, value in want.items():
        assert meta[key] == value, key


@pytest.mark.parametrize("flag, value, key, want", [
    ("--n", "20", "n", "20"), ("--r-star", "2", "r_star", "2"),
    ("--r", "4", "r", "4"), ("--kappa", "3", "kappa", "3.0"),
    ("--m", "400", "m", "400"),
    ("--eta", "0.2", "eta", "0.2"), ("--lambda", "0.01", "lambda", "0.01"),
    ("--alpha", "1e-9", "alpha", "1e-09"), ("--sigma", "0.01", "sigma", "0.01"),
    ("--max-iters", "3", "max_iters", "3"), ("--target", "1e-3", "target", "0.001"),
    ("--patience", "7", "patience", "7"),
    ("--improve-tol", "1e-2", "improve_tol", "0.01"),
    ("--seed", "9", "seed", "9"), ("--record-every", "2", "record_every", "2"),
])
def test_run_flag_overrides_preset(tmp_path, flag, value, key, want):
    # fig-alpha sets none of these to the flag's value; a small m and two
    # iterations keep the run cheap (a later flag wins)
    out = str(tmp_path / "t.csv")
    args = ["run", "--preset", "fig-alpha", "--m", "300", "--max-iters", "2",
            flag, value, "--out", out]
    assert main(args) == 0
    assert _read_meta(out + ".meta")[key] == want


def test_run_unknown_preset(tmp_path):
    assert main(["run", "--preset", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_sweep_preset_and_config(tmp_path):
    out = str(tmp_path / "sweep.csv")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "axis = kappa\n"
        "values = 1,2\n"
        "n = 16\n"
        "r_star = 2\n"
        "r = 3\n"
        "alpha = 1e-9\n"
        "target_rel_err = 1e-5\n"
        "max_iters = 400\n"
        "gd_tuning = 0.3\n"
        "trials = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(SWEEP_COLUMNS)
    assert len(rows) == 1 + 2 * 2  # two kappas, scaled + gd each
    meta = _read_meta(out + ".meta")
    assert meta["spec.axis"] == "kappa"
    assert meta["records"] == "4"


def test_run_divergence_writes_partial_trajectory(tmp_path, capsys):
    # ScaledGD (lambda = 0) blows up at iteration 1 on this instance: the CSV
    # keeps the record made before it, the sidecar says so, and the exit is 1
    out = str(tmp_path / "div.csv")
    assert main(["run", "--algorithm", "scaled-gd", "--n", "20", "--r-star", "2",
                 "--r", "3", "--kappa", "3", "--max-iters", "300",
                 "--out", out]) == 1
    assert "exceeded 1e+06 x initial loss" in capsys.readouterr().err
    rows = _read_csv(out)
    assert rows[0] == list(TRAJECTORY_COLUMNS)
    assert [row[0] for row in rows[1:]] == ["0"]
    meta = _read_meta(out + ".meta")
    assert meta["stop_reason"] == "diverged"
    assert meta["final_iter"] == "1"
    assert float(meta["final_loss"]) > 1e6 * float(rows[1][1])


def test_run_non_finite_loss_says_so(tmp_path, capsys):
    # noise at 1e200 overflows the first loss: it is not finite, rather than
    # past DIVERGENCE_FACTOR times itself; the CSV and sidecar are written,
    # and the overflow raises no numpy warning on the way
    out = str(tmp_path / "inf.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--n", "10", "--r-star", "2", "--r", "3", "--sigma", "1e200",
                     "--patience", "5", "--out", out]) == 1
    assert capsys.readouterr().err == "runtime error: loss inf is not finite at iteration 0\n"
    assert _read_csv(out) == [list(TRAJECTORY_COLUMNS)]
    meta = _read_meta(out + ".meta")
    assert (meta["stop_reason"], meta["final_iter"], meta["final_loss"]) == ("diverged", "0", "inf")


@pytest.mark.parametrize("flags", [[], ["--lambda", "0.01"]])
def test_noise_that_overflows_y_exits_1_in_one_line(tmp_path, capsys, flags):
    # a finite sigma whose noise draw overflows y itself is a runtime failure
    # named by its sigma, with no numpy warning and no CSV
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--n", "10", "--r-star", "2", "--r", "3", "--patience", "5",
                     "--sigma", "1e308", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "runtime error: the noise at sigma = 1e+308 overflows y\n"
    assert list(tmp_path.iterdir()) == []
    # at 3e307, y is finite and the first loss overflows, as before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--n", "10", "--r-star", "2", "--r", "3", "--patience", "5",
                     "--sigma", "3e307", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "runtime error: loss inf is not finite at iteration 0\n"


@pytest.mark.parametrize("kappa", ["1e200", "1e300"])
@pytest.mark.parametrize("algorithm", ["gd", "scaled-gd-lambda", "prec-gd"])
def test_diagnostics_with_underflowing_sigma_min_raise_no_warning(tmp_path, capsys,
                                                                 algorithm, kappa):
    # sigma_min^2 = 1/kappa^2 underflows to 0, so Gamma overflows (and, with
    # no lambda, the scaled block divides by 0): the metrics read inf or nan,
    # and numpy warns of nothing
    out = str(tmp_path / "k.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--algorithm", algorithm, "--n", "10", "--r-star", "2",
                     "--r", "3", "--kappa", kappa, "--patience", "5", "--diagnostics",
                     "--out", out]) == 0
    assert capsys.readouterr().err == ""
    gamma = TRAJECTORY_COLUMNS.index("gamma_norm")
    assert all(row[gamma] in ("inf", "nan") for row in _read_csv(out)[1:])


@pytest.mark.parametrize("frac", ["-0.05", "0"])
def test_damping_frac_not_positive_exits_2_before_any_build(tmp_path, monkeypatch,
                                                           capsys, frac):
    # a damping_frac <= 0 gives an auto lambda <= 0: refused as the setting
    # it is, not as the lambda it makes after the build
    builds = []
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator",
                        lambda *args: builds.append(args))
    cfg = tmp_path / "frac.cfg"
    cfg.write_text("axis = kappa\nvalues = 2\nn = 10\nr_star = 2\nr = 3\ntrials = 1\n"
                   f"gd_tuning =\ndamping_frac = {frac}\n")
    out = tmp_path / "frac.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: bad sweep configuration: damping_frac "
                                       f"must be > 0, got {float(frac)}\n")
    assert builds == []
    assert list(tmp_path.iterdir()) == [cfg]


def test_improve_tol_out_of_range_exits_2_before_any_build(tmp_path, monkeypatch, capsys):
    # at -1 every loss is an improvement, so patience would never stop the run
    builds = []
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator",
                        lambda *args: builds.append(args))
    assert main(["run", "--n", "20", "--r-star", "2", "--r", "3", "--improve-tol", "-1",
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "error: improve_tol must lie in [0, 1), got -1.0\n"
    assert builds == [] and list(tmp_path.iterdir()) == []


def test_run_singular_preconditioner_exits_1(tmp_path, capsys):
    # LinAlgError is a ValueError, but a preconditioner that turns singular
    # during a run is a runtime failure, not a flag or config error; as for a
    # diverged run, what was recorded and the settings are written first
    out = str(tmp_path / "sing.csv")
    assert main(["run", "--algorithm", "scaled-gd", "--n", "20", "--r-star", "2",
                 "--r", "4", "--alpha", "1e-200", "--seed", "1", "--out", out]) == 1
    assert capsys.readouterr().err == \
        "runtime error: preconditioner singular at iteration 0; use lambda > 0\n"
    rows = _read_csv(out)
    assert rows[0] == list(TRAJECTORY_COLUMNS)
    assert [row[0] for row in rows[1:]] == ["0"]
    meta = _read_meta(out + ".meta")
    assert meta["stop_reason"] == "preconditioner_singular"
    assert meta["final_iter"] == "0"
    assert meta["final_loss"] == repr(float(rows[1][1]))


def _without_wall_ms(rows):
    col = SWEEP_COLUMNS.index("wall_ms")
    return [row[:col] + row[col + 1:] for row in rows]


@pytest.mark.parametrize("config", [
    # a preset's settings (a tuple of GD step sizes, m = None) with a cheap slice
    "preset = ci-small\nvalues = 1,2\nn = 12\nr_star = 2\nmax_iters = 300\n"
    "gd_max_iters = 100\ntrials = 1\n",
    # no target, an empty GD grid and a fixed lambda
    "axis = rank_r\nvalues = 3,4\nn = 12\nr_star = 2\ntarget_rel_err = none\n"
    "patience = 50\nmax_iters = 300\ngd_tuning =\nlam = 0.01\ntrials = 1\n",
], ids=["preset", "fields"])
def test_sweep_sidecar_reruns_as_config(tmp_path, config):
    # a sweep's sidecar is a config: re-running it gives the same rows, also
    # when it was written under another BLAS build and thread count
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--config", str(cfg), "--out", first]) == 0
    meta = _read_meta(first + ".meta")
    assert "None" not in meta.values() and not any("(" in v for v in meta.values())
    other_host = {"blas": "reference 3.12.0", "threads": "OMP_NUM_THREADS=64"}
    Path(first + ".meta").write_text("".join(
        f"{key} = {other_host.get(key, value)}\n" for key, value in meta.items()))
    assert other_host.items() <= _read_meta(first + ".meta").items()
    assert main(["sweep", "--config", first + ".meta", "--out", second]) == 0
    assert _without_wall_ms(_read_csv(first)) == _without_wall_ms(_read_csv(second))
    assert _read_meta(second + ".meta") == meta


def test_sidecars_record_numpy_blas_and_threads(tmp_path, monkeypatch):
    # the iterates round with the BLAS build and its thread count, so both
    # sidecars say what they were computed with
    for key in [key for key in os.environ if key.endswith("_NUM_THREADS")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    run = str(tmp_path / "run.csv")
    assert main(["run", "--n", "10", "--r-star", "2", "--r", "3", "--max-iters", "3",
                 "--out", run]) == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("axis = kappa\nvalues = 2\nn = 10\nr_star = 2\nr = 3\ntrials = 1\n"
                   "max_iters = 3\ngd_tuning =\n")
    sweep = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", str(cfg), "--out", sweep]) == 0
    for path in (run, sweep):
        meta = _read_meta(path + ".meta")
        assert meta["numpy"] == np.__version__
        assert meta["blas"] not in ("", "None None")
        assert meta["threads"] == "OMP_NUM_THREADS=2,OPENBLAS_NUM_THREADS=1"
    # a value that spans lines still makes one sidecar line, so the sweep reruns
    monkeypatch.setenv("OMP_NUM_THREADS", "2\n3")
    assert main(["sweep", "--config", str(cfg), "--out", sweep]) == 0
    assert main(["sweep", "--config", sweep + ".meta", "--out", sweep]) == 0
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert main(["run", "--n", "10", "--r-star", "2", "--r", "3", "--max-iters", "3",
                 "--out", run]) == 0
    assert _read_meta(run + ".meta")["threads"] == "none"


def test_alpha_sweep_sidecar_has_no_target(tmp_path):
    # an alpha sweep stops on patience alone, and its sidecar says so also
    # when its config leaves the target at SweepSpec's default
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("axis = alpha\nvalues = 1e-10,1e-6\nn = 12\nr_star = 2\nr = 3\n"
                   "patience = 30\nmax_iters = 300\ntrials = 1\n")
    out = str(tmp_path / "a.csv")
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 0
    assert _read_meta(out + ".meta")["spec.target_rel_err"] == "none"
    reasons = [row[SWEEP_COLUMNS.index("stop_reason")] for row in _read_csv(out)[1:]]
    assert reasons and set(reasons) <= {"patience", "max_iters"}


# a noise sweep whose sigma = 1e308 overflows y at that point's measure
_OVERFLOW_SWEEP = ("axis = noise_sigma\nn = 10\nr_star = 2\nr = 3\ntrials = 1\n"
                   "target_rel_err = none\npatience = 5\n")


def test_sweep_failing_at_a_later_point_keeps_the_finished_rows(tmp_path, capsys):
    # the second point fails: the sweep exits 1 in one line, and its CSV and
    # sidecar hold the first point's row, as a sweep of that point alone does
    cfg = tmp_path / "late.cfg"
    cfg.write_text(_OVERFLOW_SWEEP + "values = 0.001,1e308\n")
    out = str(tmp_path / "late.csv")
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr() == (
        "", "runtime error: the noise at sigma = 1e+308 overflows y\n")
    cfg.write_text(_OVERFLOW_SWEEP + "values = 0.001\n")
    alone = str(tmp_path / "alone.csv")
    assert main(["sweep", "--config", str(cfg), "--out", alone]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    assert _without_wall_ms(rows) == _without_wall_ms(_read_csv(alone))
    meta, meta_alone = _read_meta(out + ".meta"), _read_meta(alone + ".meta")
    assert meta["records"] == "1"
    assert meta.pop("spec.values") == "0.001,1e+308"
    assert meta_alone.pop("spec.values") == "0.001"
    assert meta == meta_alone


def test_sweep_failing_at_its_first_point_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "first.cfg"
    cfg.write_text(_OVERFLOW_SWEEP + "values = 1e308\n")
    out = tmp_path / "first.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("runtime error:")
    assert not out.exists() and not (tmp_path / "first.csv.meta").exists()


def test_sweep_rejects_fractional_rank(tmp_path, capsys):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text("axis = rank_r\nvalues = 2.5,4\nn = 12\nr_star = 2\ntrials = 1\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "rank_r values must be integers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_flag_conflicts(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--out", out]) == 2
    assert main(["sweep", "--preset", "ci-small", "--config", "x.cfg",
                 "--out", out]) == 2


def test_sweep_bad_config_key(tmp_path, capsys):
    # the second is a line of a sweep sidecar written before the operator lost
    # its backend setting
    for line, key in (("whatever = 3", "whatever"), ("spec.backend = dense", "backend")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"axis = kappa\nvalues = 1,2\n{line}\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert f"unknown sweep config key {key!r}" in capsys.readouterr().err


def test_sweep_config_accepts_every_spec_field():
    # one config key per SweepSpec field, each set away from its default
    want = SweepSpec(axis="rank_r", values=(3.0, 5.0), n=20, r_star=2, r=4,
                     kappa=3.0, m=500, eta=0.25, alpha=1e-12, sigma=1e-3,
                     lam=0.01, damping_frac=0.25, target_rel_err=1e-6,
                     patience=50, improve_tol=1e-2, max_iters=300,
                     gd_max_iters=200, gd_tuning=(0.1, 0.2), trials=2,
                     master_seed=7, record_every=3)
    raw = {}
    for key in SweepSpec.__dataclass_fields__:
        value = getattr(want, key)
        raw[key] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        assert value != SweepSpec.__dataclass_fields__[key].default, key
    assert _sweep_spec_from_config(raw) == want


def test_sweep_config_unknown_preset(tmp_path, capsys):
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("preset = bogus\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "unknown preset 'bogus'" in capsys.readouterr().err
    # `--preset NAME` is that config line, an empty NAME too
    for name in ("bogus", ""):
        assert main(["sweep", "--preset", name, "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: bad sweep configuration: unknown preset {name!r}; choose from ")
    assert list(tmp_path.iterdir()) == [cfg]


def test_sweep_rejects_zero_trials(tmp_path, monkeypatch, capsys):
    # `--preset NAME` is the config line `preset = NAME`: the flag and the
    # file take one path, so they fail alike, before any build
    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator", no_build)
    out = tmp_path / "s.csv"
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("preset = ci-small\ntrials = 0\n")
    for args in (["--preset", "ci-small", "--trials", "0"], ["--config", str(cfg)]):
        assert main(["sweep", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: bad sweep configuration: trials must be >= 1\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_bad_tuple_value_names_its_key(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for key, text in (("values", "1,x"), ("gd_tuning", "0.2,x")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"preset = ci-small\n{key} = {text}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"bad value {text!r} for setting {key!r}" in capsys.readouterr().err
        assert not out.exists()


def test_config_parse_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("axis kappa\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


def test_help_mentions_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("run", "sweep"):
        assert name in out


def test_run_diagnostics_records_phase_metrics(tmp_path, identity_instance, capsys):
    # `run --diagnostics` records the four phase metrics at every record
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", "ci-small", "--kappa", "3", "--record-every", "10",
                 "--diagnostics", "--out", out]) == 0
    printed = capsys.readouterr().out
    rows = _read_csv(out)
    col = {name: rows[0].index(name) for name in TRAJECTORY_COLUMNS}
    assert len(rows) > 3
    for row in rows[1:]:
        for name in ("sigma_min_scaled", "misalign", "gamma_norm", "overparam_norm"):
            assert row[col[name]] != "", (row[0], name)
        # spectral <= Frobenius, up to the rounding of X X^T - M* (~eps ||M*||):
        # near the stop the error is close to rank one and the two agree
        assert float(row[col["rel_err_op"]]) <= float(row[col["rel_err_fro"]]) + 1e-14
    assert f"rel_err_fro={float(rows[-1][col['rel_err_fro']]):.3e}" in printed.split()


def test_run_diagnostics_with_r_below_r_star_exits_2(tmp_path, capsys):
    # the phase metrics need r >= r*: a flag error, found before the run, so
    # no CSV or sidecar is written
    out = tmp_path / "t.csv"
    assert main(["run", "--n", "10", "--r-star", "2", "--r", "1", "--kappa", "2",
                 "--patience", "20", "--diagnostics", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: diagnostics need r >= r* = 2, got r = 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("algorithm", ["gd", "prec-gd"])
def test_run_refuses_a_lambda_the_algorithm_ignores(tmp_path, capsys, algorithm):
    # GD and PrecGD take no fixed lambda; one on the command line is a flag
    # error, not a damping the sidecar reports but the step never applies
    out = tmp_path / "g.csv"
    assert main(["run", "--algorithm", algorithm, "--lambda", "0.01", "--n", "12",
                 "--r-star", "2", "--r", "3", "--max-iters", "5", "--diagnostics",
                 "--out", str(out)]) == 2
    algo = algorithm.replace("-", "_")
    assert capsys.readouterr().err == \
        f"error: {algo} takes no fixed lambda; got lambda = 0.01\n"
    assert list(tmp_path.iterdir()) == []


def test_lambda_refused_before_any_build(tmp_path, monkeypatch, capsys):
    # each run's config is built from the settings before the instance, so a
    # setting SolverConfig refuses, such as a lambda GD ignores, exits 2
    # without an operator build (408 MB at paper-fig1)
    builds = []

    def counting(n, m, seed):
        builds.append((n, m, seed))
        return identity_operator(n)
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator", counting)
    out = tmp_path / "g.csv"
    for preset in ([], ["--preset", "paper-fig1"]):
        assert main(["run", *preset, "--algorithm", "gd", "--lambda", "0.01", "--n", "20",
                     "--r-star", "2", "--r", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: gd takes no fixed lambda; got lambda = 0.01\n"
    for flags, message in ((["--eta", "0"], "eta must be > 0"),
                           (["--r", "0"], "r must be >= 1"),
                           (["--alpha", "0"], "alpha must be > 0"),
                           (["--record-every", "0"], "record_every must be >= 1"),
                           (["--patience", "0", "--target", "none"], "patience must be >= 1")):
        assert main(["run", "--n", "30", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # run_point checks the configs' instance rules before it draws the truth
    for flags, message in (
            ("--algorithm prec-gd --init spectral --n 10 --r-star 2 --r 14",
             "r exceeds ambient dimension"),
            ("--n 10 --r-star 2 --r 1 --kappa 2 --patience 20 --diagnostics",
             "diagnostics need r >= r* = 2, got r = 1")):
        assert main(["run", *flags.split(), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    cfg = tmp_path / "bad.cfg"
    for text, message in (("axis = kappa\nvalues = 1,2\neta = 0", "eta must be > 0"),
                          ("axis = kappa\nvalues = 1,2\ngd_tuning = 0.2,-1", "eta must be > 0"),
                          ("axis = rank_r\nvalues = 0,3", "r must be >= 1"),
                          # PrecGD's spectral init needs r <= n
                          ("axis = rank_r\nvalues = 3,13\nr_star = 2",
                           "bad sweep configuration: rank_r values must be <= n = 12, "
                           "got (3.0, 13.0)")):
        cfg.write_text(text + "\nn = 12\ntrials = 1\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert builds == []
    assert list(tmp_path.iterdir()) == [cfg]


def test_negative_sigma_exits_2_before_any_build(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator", no_build)
    out = tmp_path / "s.csv"
    for preset in ([], ["--preset", "paper-fig1"]):
        assert main(["run", *preset, "--n", "60", "--sigma", "-0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: noise sigma must be >= 0\n"
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("axis = noise_sigma\nvalues = -0.01,0.01\nn = 20\ntrials = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "noise sigma must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# the SweepSpec fields that hold floats, one or a tuple of them
_FLOAT_FIELDS = [key for key, hint in typing.get_type_hints(SweepSpec).items()
                 if {float, tuple} & set(typing.get_args(hint) or (hint,))]


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_non_finite_setting_exits_2_before_any_build(tmp_path, monkeypatch, capsys, text):
    # nan passes every range check and inf most; `measure` adds no noise for a
    # sigma that is not > 0, so `--sigma nan` would run noiseless
    builds = []
    monkeypatch.setattr("scaledgd.experiments.gaussian_operator",
                        lambda *args: builds.append(args))
    out = tmp_path / "x.csv"
    run_flags = [(flag, field) for command, flag, field in _setting_flags()
                 if command == "run" and field in _FLOAT_FIELDS]
    assert len(run_flags) == 7 and len(_FLOAT_FIELDS) == 10
    for flag, field in run_flags:
        assert main(["run", "--n", "10", "--r-star", "2", "--r", "3", "--patience", "5",
                     flag, text, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be finite, got {text}\n"
    cfg = tmp_path / "bad.cfg"
    for field in _FLOAT_FIELDS:
        lines = {"axis": "kappa", "values": "1,2", "n": "10", "trials": "1",
                 field: {"values": f"1,{text}", "gd_tuning": f"0.2,{text}"}.get(field, text)}
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: bad sweep configuration: {field} must be finite, got ")
    assert builds == []
    assert list(tmp_path.iterdir()) == [cfg]


def _setting_flags():
    """(subcommand, flag, field) for each flag of `run` and `sweep` that sets
    a SweepSpec field."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command in ("run", "sweep")
            for action in sub.choices[command]._actions
            if action.dest in SweepSpec.__dataclass_fields__]


# per field: values a flag and a config line must read alike, then one that
# both must reject
_SETTING_TEXTS = {
    "n": (["20"], "x"), "r_star": (["2"], "2.5"), "kappa": (["3"], "3x"),
    "r": (["4"], "none"), "m": (["400", "auto", "none"], "1.5"),
    "eta": (["0.2"], "fast"),
    "lam": (["0.01", "auto"], "none"), "alpha": (["1e-9"], "tiny"),
    "sigma": (["0.01"], "auto"), "max_iters": (["3"], "1e3"),
    "target_rel_err": (["1e-3", "none"], "low"), "patience": (["7", "none"], "7.5"),
    "improve_tol": (["1e-2"], "none"), "master_seed": (["9"], "-"),
    "record_every": (["2"], "every"), "trials": (["2"], "two"),
}
_BASE_CONFIG = {"preset": "ci-small", "patience": "100"}


def test_setting_flags_all_covered():
    flags = _setting_flags()
    assert len(flags) == 17
    assert {field for _, _, field in flags} == set(_SETTING_TEXTS)


@pytest.mark.parametrize("command, flag, field", _setting_flags())
def test_setting_flag_reads_as_config_line(command, flag, field):
    for text in _SETTING_TEXTS[field][0]:
        args = build_parser().parse_args([command, flag, text, "--out", "x.csv"])
        assert list(_spec_fields(args)) == [field]
        assert (_sweep_spec_from_config(_BASE_CONFIG, **_spec_fields(args))
                == _sweep_spec_from_config({**_BASE_CONFIG, field: text})), text


@pytest.mark.parametrize("command, flag, field", _setting_flags())
def test_bad_setting_exits_2_as_flag_and_config_line(tmp_path, command, flag, field):
    bad = _SETTING_TEXTS[field][1]
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{key} = {text}\n"
                           for key, text in {**_BASE_CONFIG, field: bad}.items()))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert main([command, "--preset", "ci-small", flag, bad, "--out", str(out)]) == 2
    assert not out.exists()


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("scaledgd ")]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_parse(argv):
    # the README's CLI block stays in step with the parser (nothing is run)
    _spec_fields(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "10", "--r-star", "2", "--out", "x"],
    ["diag", "--checkpoints", "c.npz", "--instance", "i.meta", "--out", "x"],
    ["run", "--instance", "i.meta", "--out", "x"],
    ["run", "--checkpoints", "c.npz", "--out", "x"],
    ["run", "--backend", "streamed", "--out", "x"],
    ["run", "--lambda-auto", "2", "--out", "x"],
    ["rip", "--backend", "streamed", "--n", "10", "--m", "400", "--rank", "2"],
    ["rip", "--operator", "identity", "--n", "10", "--m", "400", "--rank", "2"],
    ["rip", "--n", "8", "--m", "400", "--rank", "2"],
    ["run", "--operator", "identity", "--n", "12", "--out", "x"],
], ids=lambda argv: " ".join(argv[:2]))
def test_removed_commands_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
