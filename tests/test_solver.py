import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scaledgd.problem import NoiseModel, dense_m_star, make_ground_truth
from scaledgd.sensing import gaussian_operator, identity_operator, measure
from scaledgd.solver import (DivergenceError, PreconditionerError, SolverConfig,
                             StoppingRule, _solve_preconditioner,
                             estimate_damping, random_init, run,
                             run_batch, spectral_init, step_gd, step_prec_gd,
                             step_scaled_gd, step_scaled_gd_lambda)

SRC = Path(__file__).resolve().parent.parent / "src"


def _scalar_setup():
    # n = 1 identity sensing with M* = 1, so f(x) = (x^2 - 1)^2 / 4
    op = identity_operator(1)
    y = np.array([1.0])
    x = np.array([[0.5]])
    return op, y, x


def test_scalar_closed_forms():
    op, y, x = _scalar_setup()
    f, w = op.residual_grad(x, y)
    assert f == pytest.approx(0.140625, abs=1e-15)
    g = w @ x
    assert g[0, 0] == pytest.approx(-0.375, abs=1e-15)
    eta, lam = 0.1, 0.25
    assert step_scaled_gd_lambda(x, g, eta, lam)[0, 0] == pytest.approx(0.575, abs=1e-14)
    assert step_gd(x, g, eta)[0, 0] == pytest.approx(0.5375, abs=1e-14)
    assert step_scaled_gd(x, g, eta)[0, 0] == pytest.approx(0.65, abs=1e-14)
    assert step_prec_gd(x, g, eta, f)[0, 0] == pytest.approx(0.56, abs=1e-14)


def test_scalar_recurrence_oracle():
    # x_{t+1} = x_t - eta (x_t^2 - 1) x_t / (x_t^2 + lam), checked to 1e-14
    op, y, x = _scalar_setup()
    eta, lam = 0.2, 0.1
    s = 0.5
    for _ in range(30):
        x = step_scaled_gd_lambda(x, op.residual_grad(x, y)[1] @ x, eta, lam)
        s = s - eta * (s * s - 1.0) * s / (s * s + lam)
        assert abs(x[0, 0] - s) <= 1e-14


def test_gradient_matches_finite_differences():
    h = 1e-6
    for inst in range(20):
        gen = np.random.default_rng(inst)
        op = gaussian_operator(6, 40, seed=inst)
        y = gen.normal(size=40)
        x = gen.normal(size=(6, 2))
        g = op.residual_grad(x, y)[1] @ x
        scale = max(np.abs(g).max(), 1.0)
        for _ in range(5):
            i, j = gen.integers(6), gen.integers(2)
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            fd = (op.residual_grad(xp, y)[0] - op.residual_grad(xm, y)[0]) / (2 * h)
            assert abs(g[i, j] - fd) <= 1e-6 * scale


def test_ground_truth_is_fixed_point():
    gt = make_ground_truth(12, 3, 2, seed=5)
    op = gaussian_operator(12, 240, seed=6)
    y = measure(op, gt).y
    x_star = gt.x_star
    f, w = op.residual_grad(x_star, y)
    g = w @ x_star
    assert np.abs(g).max() <= 1e-10
    for stepped in (step_gd(x_star, g, 0.3),
                    step_scaled_gd_lambda(x_star, g, 0.3, 0.05),
                    step_prec_gd(x_star, g, 0.3, f)):
        assert np.abs(stepped - x_star).max() <= 1e-9


def test_rotation_equivariance():
    # M_t is invariant under right-rotation of the initialization
    n, r = 20, 4
    gt = make_ground_truth(n, 2, 3, seed=1)
    op = gaussian_operator(n, 400, seed=2)
    y = measure(op, gt).y
    x0 = random_init(n, r, 0.1, seed=3)
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(r, r)))
    stop = StoppingRule(patience=1000)
    base = dict(algorithm="scaled_gd_lambda", r=r, eta=0.3, lam=0.05,
                init="explicit", max_iters=50, stop=stop)
    xa = run(op, y, SolverConfig(x0=x0, **base)).final_state.x
    xb = run(op, y, SolverConfig(x0=x0 @ q, **base)).final_state.x
    ma, mb = xa @ xa.T, xb @ xb.T
    assert np.abs(ma - mb).max() <= 1e-9 * np.abs(ma).max()


def test_large_lambda_approaches_gd():
    # (C + lam I)^{-1} ~ I/lam with error ||C|| / (lam (lam - ||C||))
    gen = np.random.default_rng(7)
    x = gen.normal(size=(10, 3))
    g = gen.normal(size=(10, 3))
    c_norm = np.linalg.norm(x.T @ x, 2)
    eta = 0.5
    for lam in (2.5 * c_norm, 10 * c_norm, 1e4 * c_norm):
        precond = step_scaled_gd_lambda(x, g, eta, lam)
        gd_limit = step_gd(x, g, eta / lam)
        bound = eta * np.linalg.norm(g, 2) * c_norm / (lam * (lam - c_norm))
        assert np.linalg.norm(precond - gd_limit, 2) <= bound * (1 + 1e-10)


def test_run_deterministic():
    gt = make_ground_truth(15, 2, 2, seed=9)
    op = gaussian_operator(15, 200, seed=10)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=0.01,
                       alpha=1e-6, max_iters=40, stop=StoppingRule(patience=500),
                       seed_init=11)
    a = run(op, y, cfg, oracle=gt)
    b = run(op, y, cfg, oracle=gt)
    assert np.array_equal(a.final_state.x, b.final_state.x)
    assert [r.loss for r in a.records] == [r.loss for r in b.records]


def test_stop_at_truth_immediately():
    gt = make_ground_truth(10, 2, 2, seed=0)
    op = identity_operator(10)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="gd", r=2, eta=0.1, init="explicit",
                       x0=gt.x_star, max_iters=100,
                       stop=StoppingRule(target_rel_err=1e-9))
    traj = run(op, y, cfg, oracle=gt)
    assert traj.stop_reason == "target_reached"
    assert traj.final_state.t == 0


def test_target_stop_needs_oracle():
    op = identity_operator(5)
    cfg = SolverConfig(algorithm="gd", r=1, eta=0.1, max_iters=10,
                       stop=StoppingRule(target_rel_err=1e-3))
    with pytest.raises(ValueError):
        run(op, np.zeros(op.m) + 0.1, cfg)


def test_patience_stop_on_stalled_loss():
    # tiny step size stalls the loss, so patience fires well before max_iters
    gt = make_ground_truth(8, 2, 2, seed=3)
    op = identity_operator(8)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="gd", r=2, eta=1e-12, alpha=1e-3,
                       max_iters=10_000, stop=StoppingRule(patience=20))
    traj = run(op, y, cfg)
    assert traj.stop_reason == "patience"
    assert traj.final_state.t < 100


def test_max_iters_stop_and_final_record():
    gt = make_ground_truth(8, 2, 2, seed=3)
    op = identity_operator(8)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=0.01,
                       max_iters=17, stop=StoppingRule(patience=1000),
                       record_every=5)
    traj = run(op, y, cfg, oracle=gt)
    assert traj.stop_reason == "max_iters"
    ts = [r.t for r in traj.records]
    assert ts == [0, 5, 10, 15, 17]


def test_records_at_multiples_and_target_stop_once():
    gt = make_ground_truth(8, 2, 2, seed=3)
    op = identity_operator(8)
    y = measure(op, gt).y
    base = dict(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=0.01, alpha=1e-3,
                max_iters=400)
    dense = run(op, y, SolverConfig(stop=StoppingRule(patience=1000), **base),
                oracle=gt)
    errs = {rec.t: rec.rel_err_fro for rec in dense.records}
    # a target first met at an iteration t_stop that is not a multiple of 7
    t_stop = next(t for t in sorted(errs) if t > 14 and t % 7
                  and errs[t] < min(errs[s] for s in errs if s < t))
    traj = run(op, y, SolverConfig(stop=StoppingRule(target_rel_err=errs[t_stop]),
                                   record_every=7, **base),
               oracle=gt)
    assert traj.stop_reason == "target_reached"
    assert traj.final_state.t == t_stop
    ts = [rec.t for rec in traj.records]
    assert ts == list(range(0, t_stop, 7)) + [t_stop]
    assert traj.records[-1].rel_err_op is not None


_STEPS = {
    "gd": lambda x, g, f, cfg: step_gd(x, g, cfg.eta),
    "scaled_gd": lambda x, g, f, cfg: step_scaled_gd(x, g, cfg.eta),
    "scaled_gd_lambda": lambda x, g, f, cfg: step_scaled_gd_lambda(x, g, cfg.eta, cfg.lam),
    "prec_gd": lambda x, g, f, cfg: step_prec_gd(x, g, cfg.eta, f),
}


@pytest.mark.parametrize("algorithm", sorted(_STEPS))
def test_run_matches_hand_loop_over_step(algorithm):
    gt = make_ground_truth(12, 2, 3, seed=4)
    op = gaussian_operator(12, 240, seed=5)
    y = measure(op, gt).y
    x0 = random_init(12, 3, 0.1, seed=6)
    cfg = SolverConfig(algorithm=algorithm, r=3, eta=0.2,
                       lam=0.02 if algorithm == "scaled_gd_lambda" else 0.0,
                       init="explicit", x0=x0, max_iters=10,
                       stop=StoppingRule(patience=1000))
    traj = run(op, y, cfg)
    x = x0
    for _ in range(10):
        f, w = op.residual_grad(x, y)
        x = _STEPS[algorithm](x, w @ x, f, cfg)
    assert traj.final_state.t == 10
    assert np.array_equal(traj.final_state.x, x)


def test_run_steps_through_module_functions(monkeypatch):
    # each iteration calls step_gd or step_scaled_gd_lambda as a module
    # attribute, so a wrapper put there sees every step
    import scaledgd.solver as solver
    calls = []
    for name in ("step_gd", "step_scaled_gd_lambda"):
        fn = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    op = identity_operator(6)
    y = measure(op, make_ground_truth(6, 2, 2, seed=1)).y
    for algorithm in _STEPS:
        calls.clear()
        cfg = SolverConfig(algorithm=algorithm, r=2, eta=0.1, alpha=0.1,
                           max_iters=8, stop=StoppingRule(patience=1000))
        assert run(op, y, cfg).final_state.t == 8
        want = "step_gd" if algorithm == "gd" else "step_scaled_gd_lambda"
        assert calls == [want] * 8


def test_prec_gd_lambda_schedule_decreases():
    # lambda_t = sqrt(f(X_t)) tracks the loss, which decays on a converging run
    gt = make_ground_truth(12, 2, 2, seed=4)
    op = gaussian_operator(12, 360, seed=5)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="prec_gd", r=2, eta=0.3, init="spectral",
                       max_iters=60, stop=StoppingRule(patience=1000))
    traj = run(op, y, cfg, oracle=gt)
    lams = [np.sqrt(r.loss) for r in traj.records]
    assert lams[-1] < 1e-4 * lams[0]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(lams, lams[1:]))


def test_spectral_init_identity_recovers_truth():
    gt = make_ground_truth(10, 3, 2, seed=6)
    op = identity_operator(10)
    y = measure(op, gt).y
    x0 = spectral_init(op, y, 3)
    assert np.abs(x0 @ x0.T - dense_m_star(gt)).max() <= 1e-10


def test_spectral_init_clips_negative_eigenvalues():
    op = identity_operator(4)
    y = op.apply_forward(-np.eye(4))
    x0 = spectral_init(op, y, 2)
    assert np.array_equal(x0, np.zeros((4, 2)))


def test_random_init_scale_and_determinism():
    a = random_init(50, 3, 1e-6, seed=1)
    assert a.shape == (50, 3)
    assert np.array_equal(a, random_init(50, 3, 1e-6, seed=1))
    assert np.array_equal(2 * a, random_init(50, 3, 2e-6, seed=1))
    # entries are alpha N(0, 1/n): Frobenius norm concentrates near alpha sqrt(r)
    assert 0.5e-6 < np.linalg.norm(a) < 3e-6


def test_estimate_damping_identity():
    gt = make_ground_truth(9, 3, 2, seed=8)
    op = identity_operator(9)
    y = measure(op, gt).y
    est = estimate_damping(op, y, rank_guess=3)
    # A*(y) = M*, so the surrogate is c_frac times sigma_min(X*)^2
    assert est.lambda_hat == pytest.approx(0.05 * gt.sigma_star[-1] ** 2, rel=1e-10)
    est2 = estimate_damping(op, y, rank_guess=3, c_frac=0.25)
    assert est2.lambda_hat == pytest.approx(0.25 * gt.sigma_star[-1] ** 2, rel=1e-10)
    with pytest.raises(ValueError):
        estimate_damping(op, y, rank_guess=0)


def test_divergence_guard():
    gt = make_ground_truth(8, 2, 2, seed=2)
    op = identity_operator(8)
    y = measure(op, gt).y
    cfg = SolverConfig(algorithm="gd", r=2, eta=50.0, alpha=0.5,
                       max_iters=200, stop=StoppingRule(patience=500))
    with pytest.raises(DivergenceError) as info:
        run(op, y, cfg, oracle=gt)
    # the records made before the divergence survive it
    traj = info.value.trajectory
    assert traj.stop_reason == "diverged"
    records = traj.records
    assert records
    ts = [rec.t for rec in records]
    assert ts == sorted(set(ts)) and ts[-1] < traj.final_state.t
    for rec in records:
        assert np.isfinite(rec.loss) and np.isfinite(rec.rel_err_fro)
        assert np.isfinite(rec.rel_err_op)


def _alone(op, y, config, oracle):
    try:
        return run(op, y, config, oracle=oracle)
    except DivergenceError as exc:
        return exc.trajectory


def _assert_same_run(batched, alone, norm_m):
    # lockstep and one-at-a-time runs agree in their stop and record points
    # and in their final errors.  Mid-run they can part by more: the
    # surplus and not yet grown signal directions amplify rounding
    # differences before the iterates contract again.  X itself may rotate
    # within near-null directions; X X^T may not.
    assert batched.stop_reason == alone.stop_reason
    assert batched.final_state.t == alone.final_state.t
    assert [r.t for r in batched.records] == [r.t for r in alone.records]
    if batched.stop_reason == "diverged":
        return
    last_b, last_a = batched.records[-1], alone.records[-1]
    assert abs(last_b.rel_err_fro - last_a.rel_err_fro) <= 1e-12
    assert abs(last_b.rel_err_op - last_a.rel_err_op) <= 1e-12
    xb, xa = batched.final_state.x, alone.final_state.x
    assert np.linalg.norm(xb @ xb.T - xa @ xa.T) <= 1e-12 * norm_m


def test_run_batch_matches_runs_alone():
    # ScaledGD(lambda), GD at three step sizes and PrecGD on one operator
    # stop at 156, 400 and 140 iterations, so the batch shrinks as they leave
    gt = make_ground_truth(20, 2, 4, seed=3)
    op = gaussian_operator(20, 400, seed=4)
    y = measure(op, gt).y
    lam = estimate_damping(op, y, 2, c_frac=0.05).lambda_hat
    base = SolverConfig(algorithm="scaled_gd_lambda", r=4, eta=0.3, lam=lam,
                        alpha=1e-27, max_iters=400,
                        stop=StoppingRule(target_rel_err=1e-9), seed_init=5,
                        record_every=7)
    configs = [base] + [replace(base, algorithm="gd", lam=0.0, eta=eta)
                        for eta in (0.2, 0.4, 0.6)]
    configs.append(replace(base, algorithm="prec_gd", lam=0.0, init="spectral"))
    batched = run_batch(op, y, configs, oracle=gt)
    assert [traj.final_state.t for traj in batched] == [156, 400, 400, 400, 140]
    for config, traj in zip(configs, batched):
        _assert_same_run(traj, _alone(op, y, config, gt), gt.spectral_norm_m())


def test_run_batch_keeps_diverged_run_and_the_others():
    # GD at eta = 50 blows up inside the batch: it leaves with its records,
    # and the other runs go on as they would alone
    gt = make_ground_truth(10, 2, 2, seed=6)
    op = gaussian_operator(10, 200, seed=7)
    y = measure(op, gt).y
    lam = estimate_damping(op, y, 2, c_frac=0.05).lambda_hat
    base = SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=lam,
                        alpha=1e-27, max_iters=150,
                        stop=StoppingRule(target_rel_err=1e-9), seed_init=8)
    configs = [base, replace(base, algorithm="gd", lam=0.0, eta=50.0, alpha=0.5),
               replace(base, algorithm="gd", lam=0.0, eta=0.3)]
    batched = run_batch(op, y, configs, oracle=gt)
    assert [traj.stop_reason for traj in batched] == \
        ["target_reached", "diverged", "max_iters"]
    diverged = batched[1]
    assert diverged.records and diverged.final_state.t > diverged.records[-1].t
    with pytest.raises(DivergenceError) as info:
        run(op, y, configs[1], oracle=gt)
    assert info.value.trajectory.final_state.t == diverged.final_state.t
    for config, traj in zip(configs, batched):
        _assert_same_run(traj, _alone(op, y, config, gt), gt.spectral_norm_m())


def test_run_batch_keeps_going_past_a_singular_preconditioner():
    # ScaledGD from alpha = 1e-200: X^T X underflows to a singular matrix at
    # the first step.  That run leaves with its records and stop reason
    # "preconditioner_singular"; the damped run on the same operator goes on
    # as it would alone
    gt = make_ground_truth(20, 2, 2, seed=9)
    op = gaussian_operator(20, 400, seed=10)
    y = measure(op, gt).y
    lam = estimate_damping(op, y, 2, c_frac=0.05).lambda_hat
    damped = SolverConfig(algorithm="scaled_gd_lambda", r=4, eta=0.3, lam=lam,
                          alpha=1e-27, max_iters=400,
                          stop=StoppingRule(target_rel_err=1e-9), seed_init=11)
    singular = replace(damped, algorithm="scaled_gd", lam=0.0, alpha=1e-200)
    stopped, finished = run_batch(op, y, [singular, damped], oracle=gt)
    assert stopped.stop_reason == "preconditioner_singular"
    assert stopped.final_state.t == 0 and [r.t for r in stopped.records] == [0]
    assert finished.stop_reason == "target_reached"
    _assert_same_run(finished, run(op, y, damped, oracle=gt), gt.spectral_norm_m())
    # run() raises, with the trajectory up to the failed step
    with pytest.raises(PreconditionerError, match="at iteration 0") as info:
        run(op, y, singular, oracle=gt)
    assert info.value.trajectory.stop_reason == "preconditioner_singular"
    assert [r.loss for r in info.value.trajectory.records] == [stopped.records[0].loss]


def test_preconditioner_singularity():
    x = np.zeros((5, 2))
    x[:, 0] = 1.0  # rank deficient, X^T X singular
    g = np.ones((5, 2))
    with pytest.raises(PreconditionerError):
        step_scaled_gd(x, g, 0.1)
    # positive damping repairs it
    step_scaled_gd_lambda(x, g, 0.1, 1e-3)


def test_solve_preconditioner_matches_dense_solve():
    gen = np.random.default_rng(12)
    for r in (1, 5, 20):
        x = gen.normal(size=(60, r))
        g = gen.normal(size=(60, r))
        for lam in (0.0, 0.05):
            got = _solve_preconditioner(x, g, lam)
            want = np.linalg.solve(x.T @ x + lam * np.eye(r), g.T).T
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_solvers_run_without_scipy():
    # the package, ScaledGD(lambda) and PrecGD included, needs numpy only
    code = (
        "import sys\n"
        "from scaledgd import (SolverConfig, StoppingRule, gaussian_operator,\n"
        "                      make_ground_truth, measure, run)\n"
        "gt = make_ground_truth(10, 2, 2, seed=1)\n"
        "op = gaussian_operator(10, 200, seed=2)\n"
        "y = measure(op, gt).y\n"
        "stop = StoppingRule(patience=100)\n"
        "for alg, lam, init in (('scaled_gd_lambda', 0.01, 'small_random'),\n"
        "                       ('prec_gd', 0.0, 'spectral')):\n"
        "    cfg = SolverConfig(algorithm=alg, r=4, eta=0.3, lam=lam, init=init,\n"
        "                       max_iters=3, stop=stop)\n"
        "    assert run(op, y, cfg).final_state.t == 3\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="newton", r=2, eta=0.1)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=0, eta=0.1)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="scaled_gd", r=2, eta=0.1, lam=0.5)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=0.1, lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=0.1, init="explicit")
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=0.1, alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=0.1, max_iters=-1)
    with pytest.raises(ValueError):
        StoppingRule()
    with pytest.raises(ValueError):
        StoppingRule(target_rel_err=0.0)
    with pytest.raises(ValueError):
        StoppingRule(patience=0)


def test_noisy_measurements_flow_through():
    gt = make_ground_truth(10, 2, 2, seed=7)
    op = gaussian_operator(10, 300, seed=8)
    y = measure(op, gt, NoiseModel(sigma=1e-3, seed=1)).y
    cfg = SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=0.01,
                       alpha=1e-6, max_iters=200, stop=StoppingRule(patience=50))
    traj = run(op, y, cfg, oracle=gt)
    final = traj.records[-1]
    assert final.rel_err_fro is not None and final.rel_err_fro < 0.05
