"""Parameter sweeps, reference values, and CSV emission.

A sweep runs one algorithm (or a fixed comparison set) across an axis of
values -- condition number, initialization scale, overparameterization rank,
or noise level -- with `trials` independent seeds per point.  Per-point seeds
are derived from the master seed and (axis_index, trial), so adding trials
never perturbs existing ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .problem import NoiseModel, make_ground_truth
from .rng import derive_seed
from .sensing import gaussian_operator, measure
from .solver import (DAMPING_FRAC, SolverConfig, StoppingRule, Trajectory,
                     estimate_damping, run_batch)

SENTINEL_ITERS = -1  # target never reached

# tags for per-run seed derivation, in the sweeps and in `scaledgd run`
TAG_TRUTH, TAG_OPERATOR, TAG_INIT, TAG_NOISE = 1, 2, 3, 4

TRAJECTORY_COLUMNS = ("iter", "loss", "rel_err_fro", "rel_err_op",
                      "sigma_min_scaled", "misalign", "gamma_norm",
                      "overparam_norm", "elapsed_ms")
SWEEP_COLUMNS = ("axis", "axis_value", "trial", "algorithm", "iters_to_target",
                 "final_rel_err_fro", "final_rel_err_op", "stop_reason", "wall_ms")

# each sweep axis and the SweepSpec field its values set
AXES = {"kappa": "kappa", "alpha": "alpha", "rank_r": "r", "noise_sigma": "sigma"}


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    n: int = 60
    r_star: int = 3
    r: int = 5
    kappa: float = 2.0
    m: int | None = None              # default 10 * n * r_star
    eta: float = 0.3
    alpha: float = 1e-27  # target-derived default: epsilon^3 at epsilon = 1e-9
    sigma: float = 0.0
    lam: float | str = "auto"         # "auto" = estimate_damping(rank_guess=r_star)
    damping_frac: float = DAMPING_FRAC  # c_frac for "auto"
    target_rel_err: float | None = 1e-9
    patience: int | None = None
    improve_tol: float = 1e-3
    max_iters: int = 2000
    gd_max_iters: int | None = None
    gd_tuning: tuple = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8)
    trials: int = 3
    master_seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        vals = tuple(self.values)
        if not vals:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "values", vals)
        if self.axis == "rank_r" and not all(float(v).is_integer() for v in vals):
            raise ValueError(f"rank_r values must be integers, got {vals}")
        if self.axis == "alpha":  # it measures final errors, so patience alone stops
            if self.patience is None:
                raise ValueError("alpha sweep uses the patience (early stopping) rule")
            object.__setattr__(self, "target_rel_err", None)
        if self.target_rel_err is None and self.patience is None:
            raise ValueError("enable a stopping rule (target_rel_err or patience)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if isinstance(self.lam, str) and self.lam != "auto":
            raise ValueError(f"lam must be a number or 'auto', got {self.lam!r}")

    @property
    def measurements(self) -> int:
        return self.m if self.m is not None else 10 * self.n * self.r_star


@dataclass(frozen=True)
class ExperimentRecord:
    axis: str
    axis_value: float
    trial: int
    algorithm: str
    iters_to_target: int
    final_rel_err_fro: float
    final_rel_err_op: float
    stop_reason: str
    wall_ms: float


def minimax_reference(sigma: float, n: int, r_star: int) -> float:
    """Statistical floor sigma * sqrt(n * r_star) for the Frobenius error."""
    return float(sigma) * float(np.sqrt(n * r_star))


def fit_loglog_slope(points) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y).  Returns (slope, intercept, r^2)."""
    pts = [(float(px), float(py)) for px, py in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    if any(px <= 0 or py <= 0 for px, py in pts):
        raise ValueError("all coordinates must be positive")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


# -- presets ----------------------------------------------------------------

# Named sweep configurations.  The paper-scale presets (n = 150, m = 4500)
# run in minutes; ci-small covers the same condition-number comparison at
# desk scale in seconds.
PRESETS: dict[str, dict] = {
    "paper-fig1": dict(axis="kappa", values=(1, 2, 3, 4, 5, 6, 7), n=150,
                       r_star=3, r=5, eta=0.3, alpha=1e-27, target_rel_err=1e-9,
                       max_iters=2000, gd_tuning=(0.2, 0.4, 0.6),
                       gd_max_iters=3000, trials=1),
    "ci-small": dict(axis="kappa", values=(1, 2, 3, 4, 5, 6, 7), n=60,
                     r_star=3, r=5, eta=0.3, alpha=1e-27, target_rel_err=1e-9,
                     max_iters=1500, gd_tuning=(0.2, 0.4, 0.6),
                     gd_max_iters=1500, trials=1),
    "fig-alpha": dict(axis="alpha", values=(1e-12, 1e-10, 1e-8, 1e-6), n=60,
                      r_star=3, r=5, eta=0.3, target_rel_err=None,
                      patience=100, max_iters=3000, trials=1,
                      # a larger damping keeps the per-iteration growth during
                      # incubation small, which preserves the separation
                      # between signal and surplus growth rates that makes the
                      # final error scale linearly in alpha
                      damping_frac=0.25),
    # At the fixed m = 10 n r_star, PrecGD's rate worsens as r grows (its
    # guarantee needs RIP at rank r) while ScaledGD(lambda)'s does not.
    "fig-r": dict(axis="rank_r", values=(3, 5, 10, 20), n=150, r_star=3,
                  eta=0.3, alpha=1e-27, target_rel_err=1e-9, max_iters=1500,
                  trials=1),
    "fig-noisy": dict(axis="noise_sigma", values=(1e-3, 1e-2, 1e-1), n=150,
                      r_star=3, r=5, kappa=2.0, eta=0.3, alpha=1e-27,
                      target_rel_err=None, patience=200, max_iters=1500,
                      trials=1),
}


def preset_spec(name: str, **overrides) -> SweepSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# -- the point runner and the four sweeps -------------------------------------


def _row(spec, axis_value, trial, config, traj: Trajectory) -> ExperimentRecord:
    """One run's sweep row; a run that diverged has NaN errors.  wall_ms runs
    from the start of the point's batch to the run's stop."""
    errs = ((np.nan, np.nan) if traj.stop_reason == "diverged"
            else (traj.records[-1].rel_err_fro, traj.records[-1].rel_err_op))
    iters = traj.final_state.t if traj.stop_reason == "target_reached" else SENTINEL_ITERS
    return ExperimentRecord(spec.axis, float(axis_value), trial, config.algorithm,
                            iters, *errs, traj.stop_reason,
                            traj.final_state.elapsed_ns / 1e6)


def point_instance(spec: SweepSpec, seed: int, op=None):
    """(truth, operator, y) of one point, for the sweeps and `scaledgd run`:
    the truth, the Gaussian operator (unless `op` is given) and the noise are
    drawn from seeds derived from `seed`."""
    gt = make_ground_truth(spec.n, spec.r_star, spec.kappa, derive_seed(seed, TAG_TRUTH))
    if op is None:
        op = gaussian_operator(spec.n, spec.measurements, derive_seed(seed, TAG_OPERATOR))
    noise = NoiseModel(sigma=spec.sigma, seed=derive_seed(seed, TAG_NOISE))
    return gt, op, measure(op, gt, noise).y


def point_config(spec: SweepSpec, seed: int, op, y) -> SolverConfig:
    """ScaledGD(lambda)'s SolverConfig at one point, for the sweeps and
    `scaledgd run`.  lambda is estimated at spec.damping_frac of the r*-th
    eigenvalue of A*(y) when spec.lam is "auto"; the init seed is derived
    from `seed`."""
    lam = (estimate_damping(op, y, spec.r_star, c_frac=spec.damping_frac).lambda_hat
           if spec.lam == "auto" else float(spec.lam))
    stop = StoppingRule(target_rel_err=spec.target_rel_err, patience=spec.patience,
                        improve_tol=spec.improve_tol)
    return SolverConfig(algorithm="scaled_gd_lambda", r=spec.r, eta=spec.eta,
                        lam=lam, alpha=spec.alpha, max_iters=spec.max_iters, stop=stop,
                        seed_init=derive_seed(seed, TAG_INIT),
                        record_every=spec.record_every)


def _run_point(spec: SweepSpec, axis_index: int, trial: int,
               value) -> list[ExperimentRecord]:
    """Build the instance at one (axis value, trial) and run ScaledGD(lambda)
    on it; the kappa axis adds the tuned GD row, the rank axis the PrecGD row.
    The runs of a point share its operator and advance in lockstep
    (run_batch)."""
    if spec.axis == "rank_r":
        value = int(value)
    seed = derive_seed(spec.master_seed, axis_index, trial)
    point = replace(spec, **{AXES[spec.axis]: value})
    gt, op, y = point_instance(point, seed)
    cfg = point_config(point, seed, op, y)
    configs = [cfg]
    if spec.axis == "kappa":
        gd_iters = spec.gd_max_iters if spec.gd_max_iters is not None \
            else spec.max_iters
        configs += [replace(cfg, algorithm="gd", lam=0.0, eta=eta, max_iters=gd_iters)
                    for eta in spec.gd_tuning]
    elif spec.axis == "rank_r":
        configs.append(replace(cfg, algorithm="prec_gd", lam=0.0, init="spectral"))
    rows = [_row(spec, value, trial, config, traj)
            for config, traj in zip(configs, run_batch(op, y, configs, oracle=gt))]
    if spec.axis == "kappa" and spec.gd_tuning:  # GD at its best step size
        rows = [rows[0], min(rows[1:], key=_gd_rank_key)]
    return rows


def _gd_rank_key(rec: ExperimentRecord):
    converged = rec.iters_to_target != SENTINEL_ITERS
    err = rec.final_rel_err_fro if np.isfinite(rec.final_rel_err_fro) else np.inf
    return (0, rec.iters_to_target) if converged else (1, err)


def _sweep(spec: SweepSpec, axis: str) -> list[ExperimentRecord]:
    if spec.axis != axis:
        raise ValueError(f"axis must be {axis!r}")
    return [rec for ai, value in enumerate(spec.values)
            for trial in range(spec.trials)
            for rec in _run_point(spec, ai, trial, value)]


def sweep_condition_number(spec: SweepSpec) -> list[ExperimentRecord]:
    """Per kappa: ScaledGD(lambda) at fixed eta, and GD tuned over a grid.

    GD's learning rate is selected from spec.gd_tuning by smallest iteration
    count to target (non-converged runs rank last by final error).
    """
    return _sweep(spec, "kappa")


def sweep_init_scale(spec: SweepSpec) -> list[ExperimentRecord]:
    """Final reconstruction error per initialization scale, patience stopping."""
    return _sweep(spec, "alpha")


def sweep_overparam_rank(spec: SweepSpec) -> list[ExperimentRecord]:
    """ScaledGD(lambda) from small random init vs PrecGD from spectral init,
    per overparameterization rank, with m = 10 n r_star fixed.

    Both keep converging linearly, but only ScaledGD(lambda)'s iteration count
    is flat in r.  PrecGD's convergence guarantee needs RIP at rank r, which a
    fixed m = 10 n r_star measurements supplies less and less as r grows, so
    its rate worsens with r: at the fig-r preset it needs about 11x more
    iterations at r = 20 than at r = 3.
    """
    return _sweep(spec, "rank_r")


def sweep_noise(spec: SweepSpec) -> list[ExperimentRecord]:
    """Final error per noise level, to compare against minimax_reference."""
    return _sweep(spec, "noise_sigma")


def run_sweep(spec: SweepSpec) -> list[ExperimentRecord]:
    dispatch = {"kappa": sweep_condition_number, "alpha": sweep_init_scale,
                "rank_r": sweep_overparam_rank, "noise_sigma": sweep_noise}
    return dispatch[spec.axis](spec)


# -- CSV ----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        return format(value, ".16e")
    return str(value)


def emit_csv(data, path) -> None:
    """Write a sweep record list or a Trajectory with deterministic formatting.
    A sweep row is its record's fields; a trajectory row is its record's,
    with the phase metrics (empty without diagnostics) in the middle."""
    if isinstance(data, Trajectory):
        columns = TRAJECTORY_COLUMNS
        rows = [[rec.t, rec.loss, rec.rel_err_fro, rec.rel_err_op,
                 *(getattr(rec.metrics, col, None) for col in TRAJECTORY_COLUMNS[4:8]),
                 rec.elapsed_ms] for rec in data.records]
    else:
        columns = SWEEP_COLUMNS
        rows = [[getattr(rec, col) for col in SWEEP_COLUMNS] for rec in data]
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([_fmt(value) for value in row] for row in rows)
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc
