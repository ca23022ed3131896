import csv

import numpy as np
import pytest

from scaledgd import __version__
from scaledgd.cli import _sweep_spec_from_config, main
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


def test_gen_and_meta(tmp_path):
    out = str(tmp_path / "inst")
    assert main(["gen", "--n", "12", "--r-star", "2", "--kappa", "3",
                 "--seed", "5", "--out", out]) == 0
    m = np.load(out + ".npy")
    assert m.shape == (12, 12)
    vals = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    assert vals[1] == pytest.approx((1 / 3) ** 2, abs=1e-10)
    meta = _read_meta(out + ".meta")
    assert meta["n"] == "12" and meta["r_star"] == "2" and meta["seed"] == "5"


def test_gen_txt_format(tmp_path):
    out = str(tmp_path / "inst")
    assert main(["gen", "--n", "6", "--r-star", "1", "--format", "txt",
                 "--out", out]) == 0
    m = np.loadtxt(out + ".txt")
    assert m.shape == (6, 6)


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


def test_run_lambda_flags_conflict(tmp_path, capsys):
    rc = main(["run", "--n", "10", "--r-star", "2", "--lambda", "0.1",
               "--lambda-auto", "2", "--patience", "20",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--lambda-auto", "2"]])
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


def test_run_with_instance_and_checkpoints_then_diag(tmp_path):
    inst = str(tmp_path / "inst")
    assert main(["gen", "--n", "15", "--r-star", "2", "--kappa", "2",
                 "--seed", "3", "--out", inst]) == 0
    traj_csv = str(tmp_path / "traj.csv")
    ckpt = str(tmp_path / "ckpt.npz")
    assert main(["run", "--instance", inst + ".meta", "--r", "3",
                 "--alpha", "1e-9", "--target", "1e-6", "--max-iters", "400",
                 "--record-every", "20", "--checkpoints", ckpt,
                 "--seed", "2", "--out", traj_csv]) == 0
    data = np.load(ckpt)
    assert "iters" in data and len(data["iters"]) >= 2

    diag_csv = str(tmp_path / "diag.csv")
    assert main(["diag", "--checkpoints", ckpt, "--instance", inst + ".meta",
                 "--lambda", "0.01", "--out", diag_csv]) == 0
    rows = _read_csv(diag_csv)
    assert rows[0] == list(TRAJECTORY_COLUMNS)
    assert len(rows) == 1 + len(data["iters"])
    # loss and elapsed columns are not reconstructible from checkpoints
    assert rows[1][1] == "" and rows[1][8] == ""
    # replayed relative error matches the run's recorded trajectory
    traj_rows = _read_csv(traj_csv)
    recorded = {int(r[0]): float(r[2]) for r in traj_rows[1:]}
    for row in rows[1:]:
        t, rel = int(row[0]), float(row[2])
        if t in recorded:
            assert rel == pytest.approx(recorded[t], rel=1e-6, abs=1e-12)


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


def test_run_default_settings_pinned(tmp_path):
    # SweepSpec's defaults, with run's own: no target, 1500 iterations and a
    # patience of 100
    out = str(tmp_path / "t.csv")
    assert main(["run", "--operator", "identity", "--out", out]) == 0
    meta = _read_meta(out + ".meta")
    want = dict(n="60", r_star="3", r="5", eta="0.3", alpha="1e-27",
                target="None", patience="100", max_iters="1500", sigma="0.0",
                improve_tol="0.001", record_every="1", backend="dense",
                damping_frac="0.05")
    for key, value in want.items():
        assert meta[key] == value, key


@pytest.mark.parametrize("flag, value, key, want", [
    ("--n", "20", "n", "20"), ("--r-star", "2", "r_star", "2"),
    ("--r", "4", "r", "4"), ("--kappa", "3", "kappa", "3.0"),
    ("--m", "400", "m", "400"), ("--backend", "streamed", "backend", "streamed"),
    ("--eta", "0.2", "eta", "0.2"), ("--lambda", "0.01", "lambda", "0.01"),
    ("--alpha", "1e-9", "alpha", "1e-09"), ("--sigma", "0.01", "sigma", "0.01"),
    ("--max-iters", "3", "max_iters", "3"), ("--target", "1e-3", "target", "0.001"),
    ("--patience", "7", "patience", "7"),
    ("--improve-tol", "1e-2", "improve_tol", "0.01"),
    ("--seed", "9", "seed", "9"), ("--record-every", "2", "record_every", "2"),
])
def test_run_flag_overrides_preset(tmp_path, flag, value, key, want):
    # fig-alpha sets none of these to the flag's value; a small m and two
    # iterations keep even the streamed backend cheap (a later flag wins)
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


def test_sweep_flag_conflicts(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--out", out]) == 2
    assert main(["sweep", "--preset", "ci-small", "--config", "x.cfg",
                 "--out", out]) == 2


def test_sweep_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("axis = kappa\nvalues = 1,2\nwhatever = 3\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "unknown sweep config key" in capsys.readouterr().err


def test_sweep_config_accepts_every_spec_field():
    # one config key per SweepSpec field, each set away from its default
    want = SweepSpec(axis="rank_r", values=(3.0, 5.0), n=20, r_star=2, r=4,
                     kappa=3.0, m=500, eta=0.25, alpha=1e-12, sigma=1e-3,
                     lam=0.01, damping_frac=0.25, target_rel_err=1e-6,
                     patience=50, improve_tol=1e-2, max_iters=300,
                     gd_max_iters=200, gd_tuning=(0.1, 0.2), trials=2,
                     master_seed=7, backend="streamed", record_every=3)
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


def test_config_parse_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("axis kappa\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


def test_rip_identity(capsys):
    assert main(["rip", "--n", "10", "--rank", "3", "--operator", "identity",
                 "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "delta_hat=0.000000" in out
    assert "lower bound" in out


def test_rip_rank_zero(capsys):
    assert main(["rip", "--n", "5", "--rank", "0", "--operator", "identity"]) == 2
    assert "rank must be between 1 and n" in capsys.readouterr().err


def test_rip_gaussian_requires_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rip", "--n", "10", "--rank", "2"])
    assert exc.value.code == 2


def test_rip_gaussian(capsys):
    assert main(["rip", "--n", "8", "--m", "400", "--rank", "2",
                 "--trials", "50", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "delta_hat=" in out


def test_help_mentions_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("gen", "run", "sweep", "diag", "rip"):
        assert name in out
