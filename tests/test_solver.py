import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scaledgd import diagnostics, linalg, problem, solver
from scaledgd.problem import dense_m_star, make_ground_truth
from scaledgd.sensing import gaussian_operator, identity_operator, measure
from scaledgd.solver import (SolverConfig, StoppingRule, estimate_damping,
                             random_init, run, run_batch, spectral_init, step_gd,
                             step_prec_gd, step_scaled_gd, step_scaled_gd_lambda)

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


def test_batch_diagnostics_take_one_complement_of_u_star(monkeypatch):
    # four diagnostic runs on one truth share its U*perp, and the records'
    # decompositions take no complement of their own
    real = linalg.orthonormal_complement
    shapes = []

    def counting(u):
        shapes.append(u.shape)
        return real(u)
    for module in (problem, solver, diagnostics):
        if getattr(module, "orthonormal_complement", None) is real:
            monkeypatch.setattr(module, "orthonormal_complement", counting)
    gt = make_ground_truth(10, 2, 2, seed=1)
    op = identity_operator(10)
    y = measure(op, gt).y
    configs = [SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.5, lam=0.01,
                            max_iters=5, seed_init=seed) for seed in range(4)]
    trajs = run_batch(op, y, configs, oracle=gt, collect_diagnostics=True)
    assert all(rec.metrics is not None for traj in trajs for rec in traj.records)
    assert shapes == [gt.u_star.shape]


def test_target_stop_needs_oracle():
    op = identity_operator(5)
    cfg = SolverConfig(algorithm="gd", r=1, eta=0.1, max_iters=10,
                       stop=StoppingRule(target_rel_err=1e-3))
    with pytest.raises(ValueError):
        run(op, np.zeros(op.m) + 0.1, cfg)


def test_diagnostics_with_r_below_r_star_rejected_before_any_pass(monkeypatch):
    # the phase metrics need r >= r*; the batch refuses before its first pass
    gt = make_ground_truth(10, 2, 2, seed=1)
    op = identity_operator(10)
    y = measure(op, gt).y
    passes = []
    monkeypatch.setattr(op, "residual_grad", lambda *args: passes.append(args))
    configs = [SolverConfig(algorithm="scaled_gd_lambda", r=r, eta=0.5, lam=0.01)
               for r in (3, 1)]
    with pytest.raises(ValueError, match=r"diagnostics need r >= r\* = 2, got r = 1"):
        run_batch(op, y, configs, oracle=gt, collect_diagnostics=True)
    assert passes == []


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
    # run returns the blown-up run with the records made before it
    traj = run(op, y, cfg, oracle=gt)
    assert traj.stop_reason == "diverged"
    records = traj.records
    assert records
    final_loss = traj.final_state.loss
    assert not np.isfinite(final_loss) or \
        final_loss > solver.DIVERGENCE_FACTOR * records[0].loss
    ts = [rec.t for rec in records]
    assert ts == sorted(set(ts)) and ts[-1] < traj.final_state.t
    for rec in records:
        assert np.isfinite(rec.loss) and np.isfinite(rec.rel_err_fro)
        assert np.isfinite(rec.rel_err_op)


def test_failure_words_each_failed_stop():
    # the solver says why a run failed, as `scaledgd run` prints it; a run
    # that stops by a rule of its StoppingRule has no failure
    gt = make_ground_truth(20, 2, 2, seed=9)
    op = gaussian_operator(20, 400, seed=10)
    y = measure(op, gt).y
    base = SolverConfig(algorithm="gd", r=3, eta=50.0, alpha=1e-9, max_iters=100,
                        stop=StoppingRule(target_rel_err=1e-6), seed_init=11)
    blown = run(op, y, base, oracle=gt)
    final = blown.final_state
    assert blown.stop_reason == "diverged" and np.isfinite(final.loss)
    assert blown.failure == (f"loss {final.loss:.3e} exceeded 1e+06 x initial loss "
                             f"{blown.records[0].loss:.3e} at iteration {final.t}")
    overflow = run(op, 1e200 * y, base, oracle=gt)
    assert overflow.failure == "loss inf is not finite at iteration 0"
    singular = run(op, y, replace(base, algorithm="scaled_gd", eta=0.3, alpha=1e-200),
                   oracle=gt)
    assert (singular.stop_reason, singular.failure) == \
        ("preconditioner_singular", "preconditioner singular at iteration 0; use lambda > 0")
    lam = estimate_damping(op, y, 2).lambda_hat
    reached = run(op, y, replace(base, algorithm="scaled_gd_lambda", eta=0.3, lam=lam,
                                 alpha=1e-27, max_iters=400), oracle=gt)
    assert (reached.stop_reason, reached.failure) == ("target_reached", None)


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
        _assert_same_run(traj, run(op, y, config, oracle=gt), gt.spectral_norm_m())


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
    # run returns each alone, the diverged one with its stop reason and step
    for config, traj in zip(configs, batched):
        _assert_same_run(traj, run(op, y, config, oracle=gt), gt.spectral_norm_m())


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
    # run returns the same trajectory up to the failed step
    alone = run(op, y, singular, oracle=gt)
    assert (alone.stop_reason, alone.final_state.t) == ("preconditioner_singular", 0)
    assert [r.loss for r in alone.records] == [stopped.records[0].loss]


def _unchunked(traj):
    # a trajectory bar its timings; records compare field by field, and a
    # float equals another only if its bits do (no NaN is recorded here)
    return (traj.stop_reason, traj.final_state.t, traj.final_state.x.tobytes(),
            [replace(rec, elapsed_ms=0.0) for rec in traj.records])


def _assert_chunks_change_nothing(monkeypatch, make_batch):
    """make_batch() gives the same trajectories with its records' oracle
    metrics computed in chunks of the default size and one record at a time."""
    chunked = [_unchunked(traj) for traj in make_batch()]
    monkeypatch.setattr(solver, "_RECORD_CHUNK", 1)
    assert [_unchunked(traj) for traj in make_batch()] == chunked
    return chunked


def _kappa4_instance():
    gt = make_ground_truth(20, 2, 4, seed=3)
    op = gaussian_operator(20, 400, seed=4)
    y = measure(op, gt).y
    lam = estimate_damping(op, y, 2, c_frac=0.05).lambda_hat
    base = SolverConfig(algorithm="scaled_gd_lambda", r=4, eta=0.3, lam=lam,
                        alpha=1e-27, max_iters=400,
                        stop=StoppingRule(target_rel_err=1e-9), seed_init=5)
    return gt, op, y, base


@pytest.mark.parametrize("record_every", [1, 7])
def test_chunked_records_equal_records_one_at_a_time(monkeypatch, record_every):
    # 157 records at record_every = 1 span ten chunks; 24 at 7 span two
    gt, op, y, base = _kappa4_instance()
    config = replace(base, record_every=record_every)
    ((_, _, _, records),) = _assert_chunks_change_nothing(
        monkeypatch, lambda: [run(op, y, config, oracle=gt, collect_diagnostics=True)])
    assert len(records) == {1: 157, 7: 24}[record_every]


def test_chunked_records_in_a_batch_whose_runs_stop_apart(monkeypatch):
    # ScaledGD(lambda) stops at 156 and GD at 400 and 2 (diverged)
    gt, op, y, base = _kappa4_instance()
    configs = [base, replace(base, algorithm="gd", lam=0.0),
               replace(base, algorithm="gd", lam=0.0, eta=50.0, alpha=0.5)]
    trajs = _assert_chunks_change_nothing(
        monkeypatch, lambda: run_batch(op, y, configs, oracle=gt, collect_diagnostics=True))
    assert [(reason, t) for reason, t, _, _ in trajs] == \
        [("target_reached", 156), ("max_iters", 400), ("diverged", 2)]


def test_diverged_run_flushes_its_queued_records(monkeypatch):
    # GD at eta = 2 blows up at iteration 74: four chunks of 16 records, and
    # the ten still queued are made at the stop
    gt = make_ground_truth(10, 2, 2, seed=6)
    op = gaussian_operator(10, 200, seed=7)
    y = measure(op, gt).y
    config = SolverConfig(algorithm="gd", r=3, eta=2.0, alpha=0.5, max_iters=150,
                          stop=StoppingRule(target_rel_err=1e-9), seed_init=8)
    ((reason, t, _, records),) = _assert_chunks_change_nothing(
        monkeypatch, lambda: run_batch(op, y, [config], oracle=gt, collect_diagnostics=True))
    assert (reason, t) == ("diverged", 74)
    assert [rec.t for rec in records] == list(range(74))


def test_singular_preconditioner_flushes_its_queued_records(monkeypatch):
    # the preconditioner of the 61st step (iteration 60) fails: one chunk of
    # 16 records, and the five still queued are made at the stop
    gt, op, y, base = _kappa4_instance()
    config = replace(base, record_every=3)
    step = solver.step_scaled_gd_lambda

    def make_batch():
        steps = iter(range(61))

        def failing(x, grad, eta, lam):
            if next(steps) == 60:
                raise np.linalg.LinAlgError("singular")
            return step(x, grad, eta, lam)
        monkeypatch.setattr(solver, "step_scaled_gd_lambda", failing)
        return run_batch(op, y, [config], oracle=gt, collect_diagnostics=True)

    ((reason, t, _, records),) = _assert_chunks_change_nothing(monkeypatch, make_batch)
    assert (reason, t) == ("preconditioner_singular", 60)
    assert [rec.t for rec in records] == list(range(0, 60, 3)) + [60]


def test_preconditioner_singularity():
    x = np.zeros((5, 2))
    x[:, 0] = 1.0  # rank deficient, X^T X singular
    g = np.ones((5, 2))
    with pytest.raises(np.linalg.LinAlgError):
        step_scaled_gd(x, g, 0.1)
    # positive damping repairs it
    step_scaled_gd_lambda(x, g, 0.1, 1e-3)


def test_solve_preconditioner_matches_dense_solve():
    gen = np.random.default_rng(12)
    for r in (1, 5, 20):
        x = gen.normal(size=(60, r))
        g = gen.normal(size=(60, r))
        for lam in (0.0, 0.05):
            got = x - step_scaled_gd_lambda(x, g, 1.0, lam)
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
    for algorithm in ("scaled_gd", "gd", "prec_gd"):  # only ScaledGD(lambda) reads lam
        with pytest.raises(ValueError, match=f"{algorithm} takes no fixed lambda"):
            SolverConfig(algorithm=algorithm, r=2, eta=0.1, lam=0.5)
        SolverConfig(algorithm=algorithm, r=2, eta=0.1, lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=0.1, lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd", r=2, eta=0.1, init="explicit")
    with pytest.raises(ValueError, match="unknown init"):
        SolverConfig(algorithm="gd", r=2, eta=0.1, init="bogus")
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


_NAN, _INF = float("nan"), float("inf")


# nan passes every `x <= 0` check and inf most; an improve_tol outside [0, 1)
# makes every loss an improvement (patience never fires) or none
@pytest.mark.parametrize("make, message", [
    (lambda: SolverConfig(algorithm="gd", r=2, eta=_NAN), "eta must be finite"),
    (lambda: SolverConfig(algorithm="gd", r=2, eta=_INF), "eta must be finite"),
    (lambda: SolverConfig(algorithm="scaled_gd_lambda", r=2, eta=0.3, lam=_NAN),
     "lam must be finite"),
    (lambda: SolverConfig(algorithm="gd", r=2, eta=0.3, alpha=_INF), "alpha must be finite"),
    (lambda: SolverConfig(algorithm="gd", r=2, eta=0.3, alpha=_NAN), "alpha must be finite"),
    (lambda: StoppingRule(target_rel_err=_NAN), "target_rel_err must be finite"),
    (lambda: StoppingRule(target_rel_err=_INF), "target_rel_err must be finite"),
    (lambda: StoppingRule(patience=5, improve_tol=-1.0), r"improve_tol must lie in \[0, 1\)"),
    (lambda: StoppingRule(patience=5, improve_tol=1.0), r"improve_tol must lie in \[0, 1\)"),
    (lambda: StoppingRule(patience=5, improve_tol=2.0), r"improve_tol must lie in \[0, 1\)"),
    (lambda: StoppingRule(patience=5, improve_tol=_NAN), r"improve_tol must lie in \[0, 1\)"),
    (lambda: make_ground_truth(5, 2, _NAN, 0), "kappa must be finite"),
    (lambda: make_ground_truth(5, 2, _INF, 0), "kappa must be finite"),
    (lambda: estimate_damping(identity_operator(4), np.ones(10), 2, c_frac=0.0),
     "c_frac must be > 0"),
    (lambda: estimate_damping(identity_operator(4), np.ones(10), 2, c_frac=-0.05),
     "c_frac must be > 0"),
], ids=["eta-nan", "eta-inf", "lam-nan", "alpha-inf", "alpha-nan", "target-nan",
        "target-inf", "improve_tol--1", "improve_tol-1", "improve_tol-2", "improve_tol-nan",
        "kappa-nan", "kappa-inf", "c_frac-0", "c_frac-negative"])
def test_settings_outside_their_range_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_noise_that_overflows_y_refused():
    # only y itself: at 3e307 every entry stays finite
    gt = make_ground_truth(10, 2, 2, seed=1)
    op = gaussian_operator(10, 200, seed=2)
    assert np.isfinite(measure(op, gt, 3e307, 4).y).all()
    with pytest.raises(FloatingPointError, match="sigma = 1e\\+308"):
        measure(op, gt, 1e308, 4)


def test_noisy_measurements_flow_through():
    gt = make_ground_truth(10, 2, 2, seed=7)
    op = gaussian_operator(10, 300, seed=8)
    y = measure(op, gt, 1e-3, 1).y
    cfg = SolverConfig(algorithm="scaled_gd_lambda", r=3, eta=0.3, lam=0.01,
                       alpha=1e-6, max_iters=200, stop=StoppingRule(patience=50))
    traj = run(op, y, cfg, oracle=gt)
    final = traj.records[-1]
    assert final.rel_err_fro is not None and final.rel_err_fro < 0.05
