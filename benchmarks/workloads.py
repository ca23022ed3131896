"""The four workloads.  Each takes the workload seed and the tracer, calls the
package the way its presets and CLI do, checks the results and returns one
`Op` per solver result it checked.

Instances derive from a seed as `scaledgd run --seed SEED` derives them
(truth, operator and init seeds `derive_seed(SEED, 1 | 2 | 3)`), or, for the
sweeps, as `scaledgd sweep --seed SEED` does (`master_seed = SEED`).
Settings come from the package's presets, so the workloads follow them.

`paper-kappa7` and `desk-gd-grid` take their instances from the workload
seed.  `desk-rank20` and `desk-phase-kappa` run the instances of the default
seed 0 whatever the workload seed: on seed-drawn instances at n = 60,
ScaledGD(lambda) with the presets' damping stalls just above 1e-9 on about 1
seed in 80 at r = 20 and 1 in 22 over kappa = 1..7 (stop at `max_iters`, a
failed operation), and a failure that comes and goes with the seed cannot be
counted the same way in every run.  See the README.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

from scaledgd import diagnostics, experiments, problem, sensing, solver
from scaledgd.rng import derive_seed

import checks

# the seed tags `scaledgd run` uses for the truth, the operator and the init
TAG_TRUTH, TAG_OPERATOR, TAG_INIT = 1, 2, 3
FIXED_SEED = 0  # the CLI's and the sweeps' default seed


@dataclass(frozen=True)
class Op:
    """One checked solver result: `problem` is None when every check passed;
    `outcome` (stop reason, iterations) must repeat across rounds."""

    name: str
    problem: str | None
    outcome: tuple


def _failed(names, exc: Exception) -> list[Op]:
    traceback.print_exception(exc, file=sys.stderr)
    return [Op(name, f"raised {type(exc).__name__}: {exc}", ("raised", -1))
            for name in names]


def _single_run(spec, kappa: float, seed: int, tracer,
                with_diagnostics: bool) -> tuple[Op, object]:
    """One ScaledGD(lambda) trajectory on a fresh instance, as `scaledgd run`
    builds it, with the sweeps' damping rule (`estimate_damping` at the
    preset's `damping_frac`; the CLI's own default fraction is 0.25); returns
    the checked op and the trajectory."""
    name = f"scaled_gd_lambda kappa={kappa:g}"
    try:
        gt = problem.make_ground_truth(spec.n, spec.r_star, kappa,
                                       derive_seed(seed, TAG_TRUTH))
        op = sensing.gaussian_operator(spec.n, spec.measurements,
                                       derive_seed(seed, TAG_OPERATOR))
        y = sensing.measure(op, gt).y
        lam = solver.estimate_damping(op, y, spec.r_star,
                                      c_frac=spec.damping_frac).lambda_hat
        cfg = solver.SolverConfig(
            algorithm="scaled_gd_lambda", r=spec.r, eta=spec.eta, lam=lam,
            alpha=spec.alpha, max_iters=spec.max_iters,
            stop=solver.StoppingRule(target_rel_err=spec.target_rel_err),
            seed_init=derive_seed(seed, TAG_INIT), record_every=spec.record_every)
        with tracer.span("bench.solve"):
            traj = solver.run(op, y, cfg, oracle=gt,
                              collect_diagnostics=with_diagnostics)
    except Exception as exc:  # a raising run is a failed operation
        return _failed([name], exc)[0], None
    x = traj.final_state.x
    with tracer.paused():
        problem_ = checks.check_run(traj.stop_reason, x, gt.u_star, gt.sigma_star)
        if problem_ is None and with_diagnostics:
            problem_ = checks.check_reassembly(
                x, diagnostics.decompose_iterate(x, gt).reconstruct())
    return Op(name, problem_, (traj.stop_reason, traj.final_state.t)), traj


def paper_kappa7(seed: int, tracer) -> list[Op]:
    spec = experiments.preset_spec("paper-fig1")
    return [_single_run(spec, 7.0, seed, tracer, False)[0]]


def desk_phase_kappa(seed: int, tracer) -> list[Op]:
    spec = experiments.preset_spec("ci-small")
    runs = [_single_run(spec, float(kappa), FIXED_SEED, tracer, True)
            for kappa in spec.values]
    ops = [op for op, _ in runs]
    iters = [traj.final_state.t for op, traj in runs if op.problem is None]
    if len(iters) == len(ops):
        slowest = max(range(len(ops)), key=lambda i: iters[i])
        problem_ = checks.check_kappa_spread(iters)
        if problem_ is not None:
            ops[slowest] = Op(ops[slowest].name, problem_, ops[slowest].outcome)
    return ops


def _sweep_rows(spec, tracer, names):
    """(rows by algorithm, None) for one sweep, or (None, failed ops) when it
    raises or returns other rows than one per name."""
    try:
        with tracer.span("bench.solve"):
            rows = experiments.run_sweep(spec)
    except Exception as exc:  # a raising sweep fails every row it owed
        return None, _failed(names, exc)
    by_alg = {row.algorithm: row for row in rows}
    if sorted(by_alg) != sorted(names) or len(rows) != len(names):
        got = [row.algorithm for row in rows]
        return None, [Op(name, f"sweep returned rows {got}", ("missing", -1))
                      for name in names]
    return by_alg, None


def _outcome(row) -> tuple:
    return (row.stop_reason, row.iters_to_target)


def desk_rank20(seed: int, tracer) -> list[Op]:
    spec = experiments.preset_spec("fig-r", values=(20,), n=60, master_seed=FIXED_SEED)
    rows, failed = _sweep_rows(spec, tracer, ["scaled_gd_lambda", "prec_gd"])
    if failed:
        return failed
    scaled, prec = rows["scaled_gd_lambda"], rows["prec_gd"]
    return [Op("scaled_gd_lambda r=20", checks.check_row_reached(scaled), _outcome(scaled)),
            Op("prec_gd r=20", checks.check_prec_slower(prec, scaled), _outcome(prec))]


def desk_gd_grid(seed: int, tracer) -> list[Op]:
    spec = experiments.preset_spec("ci-small", values=(7,), master_seed=seed)
    rows, failed = _sweep_rows(spec, tracer, ["scaled_gd_lambda", "gd"])
    if failed:
        return failed
    scaled, gd = rows["scaled_gd_lambda"], rows["gd"]
    return [Op("scaled_gd_lambda kappa=7", checks.check_row_reached(scaled), _outcome(scaled)),
            Op("gd kappa=7", checks.check_gd_row(gd, scaled), _outcome(gd))]


WORKLOADS = {
    "paper-kappa7": paper_kappa7,
    "desk-rank20": desk_rank20,
    "desk-gd-grid": desk_gd_grid,
    "desk-phase-kappa": desk_phase_kappa,
}
