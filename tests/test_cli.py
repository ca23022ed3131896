import argparse
import csv
import shlex
from pathlib import Path

import pytest

from scaledgd import __version__
from scaledgd.cli import _spec_fields, _sweep_spec_from_config, build_parser, main
from scaledgd.experiments import (SWEEP_COLUMNS, TRAJECTORY_COLUMNS, SweepSpec,
                                  preset_spec)
from scaledgd.problem import NoiseModel, make_ground_truth
from scaledgd.rng import derive_seed
from scaledgd.sensing import gaussian_operator, measure
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
    y = measure(op, gt, NoiseModel(seed=derive_seed(4, 4))).y
    assert float(meta["damping_frac"]) == 0.05
    assert float(meta["lambda"]) == estimate_damping(op, y, 2, c_frac=0.05).lambda_hat


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


# the settings `run --preset` took from its own table before it read the
# sweep presets; the identity operator keeps the paper-scale run cheap
_PINNED_RUN_PRESETS = {
    "paper-fig1": dict(n="150", r_star="3", r="5", eta="0.3", alpha="1e-27",
                       target="1e-09", max_iters="2000"),
    "ci-small": dict(n="60", r_star="3", r="5", eta="0.3", alpha="1e-27",
                     target="1e-09", max_iters="1500"),
}


@pytest.mark.parametrize("preset", sorted(_PINNED_RUN_PRESETS))
def test_run_preset_settings_pinned(tmp_path, preset):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", preset, "--operator", "identity",
                 "--record-every", "100", "--out", out]) == 0
    meta = _read_meta(out + ".meta")
    for key, value in _PINNED_RUN_PRESETS[preset].items():
        assert meta[key] == value, key
    assert meta["patience"] == "None" and meta["damping_frac"] == "0.05"
    assert meta["stop_reason"] == "target_reached"


@pytest.mark.parametrize("preset", ["fig-r", "fig-alpha"])
def test_run_preset_resolves_from_sweep_presets(tmp_path, preset):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", preset, "--operator", "identity",
                 "--record-every", "100", "--out", out]) == 0
    meta = _read_meta(out + ".meta")
    spec = preset_spec(preset)
    for key, field in (("n", "n"), ("r_star", "r_star"), ("r", "r"),
                       ("eta", "eta"), ("alpha", "alpha"),
                       ("target", "target_rel_err"), ("patience", "patience"),
                       ("max_iters", "max_iters"), ("damping_frac", "damping_frac")):
        assert meta[key] == str(getattr(spec, field)), key


def test_run_fig_alpha_preset_keeps_target(tmp_path, capsys):
    # the alpha axis drops its target, but a run is a kappa point: with the
    # fig-alpha preset, --target still stops it
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", "fig-alpha", "--operator", "identity",
                 "--n", "12", "--r-star", "2", "--r", "3", "--target", "1e-6",
                 "--out", out]) == 0
    assert "stop=target_reached" in capsys.readouterr().out
    meta = _read_meta(out + ".meta")
    assert meta["target"] == "1e-06" and meta["stop_reason"] == "target_reached"


def test_run_default_settings_pinned(tmp_path):
    # SweepSpec's defaults, with run's own: no target, 1500 iterations and a
    # patience of 100
    out = str(tmp_path / "t.csv")
    assert main(["run", "--operator", "identity", "--out", out]) == 0
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


def test_run_identity_operator(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    rc = main(["run", "--n", "12", "--r-star", "2", "--r", "2",
               "--operator", "identity", "--alpha", "1e-9",
               "--target", "1e-8", "--max-iters", "400", "--out", out])
    assert rc == 0
    assert "stop=target_reached" in capsys.readouterr().out


def test_run_identity_rejects_m(tmp_path, capsys):
    # the identity operator's m is n(n+1)/2, so an explicit --m is an error
    out = tmp_path / "t.csv"
    assert main(["run", "--operator", "identity", "--n", "10", "--r-star", "2",
                 "--m", "400", "--out", str(out)]) == 2
    assert "--m does not apply to --operator identity" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "t.csv.meta").exists()


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


def test_run_singular_preconditioner_exits_1(tmp_path, capsys):
    # LinAlgError is a ValueError, but a preconditioner that turns singular
    # during a run is a runtime failure, not a flag or config error; as for a
    # diverged run, what was recorded and the settings are written first
    out = str(tmp_path / "sing.csv")
    assert main(["run", "--algorithm", "scaled-gd", "--n", "20", "--r-star", "2",
                 "--r", "4", "--alpha", "1e-200", "--seed", "1", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("runtime error: preconditioner singular")
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
    # a sweep's sidecar is a config: re-running it gives the same rows
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--config", str(cfg), "--out", first]) == 0
    meta = _read_meta(first + ".meta")
    assert "None" not in meta.values() and not any("(" in v for v in meta.values())
    assert main(["sweep", "--config", first + ".meta", "--out", second]) == 0
    assert _without_wall_ms(_read_csv(first)) == _without_wall_ms(_read_csv(second))
    assert _read_meta(second + ".meta") == meta


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


def test_sweep_rejects_zero_trials(tmp_path, capsys):
    assert main(["sweep", "--preset", "ci-small", "--trials", "0",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


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


def test_rip_rank_zero(capsys):
    assert main(["rip", "--n", "5", "--m", "50", "--rank", "0"]) == 2
    assert "rank must be between 1 and n" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_rip_rejects_nonpositive_n(capsys, n):
    assert main(["rip", "--n", n, "--m", "5", "--rank", "1"]) == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_rip_gaussian_requires_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rip", "--n", "10", "--rank", "2"])
    assert exc.value.code == 2


def test_rip_gaussian(capsys):
    assert main(["rip", "--n", "8", "--m", "400", "--rank", "2",
                 "--trials", "50", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "delta_hat=" in out
    assert "lower bound" in out


def test_help_mentions_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("run", "sweep", "rip"):
        assert name in out


def test_run_diagnostics_records_phase_metrics(tmp_path, capsys):
    # `run --diagnostics` records the four phase metrics at every record
    out = str(tmp_path / "t.csv")
    assert main(["run", "--preset", "ci-small", "--kappa", "3", "--operator",
                 "identity", "--record-every", "10", "--diagnostics",
                 "--out", out]) == 0
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
], ids=lambda argv: " ".join(argv[:2]))
def test_removed_commands_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
