"""Acceptance suite: end-to-end checks of the headline behaviors.

Each test prints a single PASS/FAIL line to the terminal (bypassing pytest
capture) so the outcome per criterion is visible in any log. The suite is
slow (paper scale, n = 150, m = 4500): criteria 1-4 and 6 carry the `slow`
marker, so `pytest -m "not slow"` gives fast feedback.
"""

import time

import numpy as np
import pytest

from scaledgd.diagnostics import decompose_iterate
from scaledgd.experiments import (SENTINEL_ITERS, ExperimentRecord, SweepSpec,
                                  fit_loglog_slope, minimax_reference,
                                  preset_spec, run_sweep)
from scaledgd.problem import dense_m_star, make_ground_truth
from scaledgd.rng import derive_seed
from scaledgd.sensing import (estimate_rip_constant, gaussian_operator,
                              identity_operator, measure)
from scaledgd.solver import (SolverConfig, StoppingRule, estimate_damping,
                             gradient, loss, random_init, run,
                             step_scaled_gd_lambda)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _spread(recs):
    """Max/min iterations to target over records; inf unless every record
    reached the target (a capped or diverged run has no iteration count)."""
    if not all(r.stop_reason == "target_reached" for r in recs):
        return np.inf
    iters = [r.iters_to_target for r in recs]
    return max(iters) / min(iters)


def _gd_lower_bound(rec, cap):
    """Iterations attributable to a GD record; a capped non-converged run
    counts as the cap, an honest lower bound on the true iteration count."""
    if rec.iters_to_target != SENTINEL_ITERS:
        return rec.iters_to_target
    return cap


@pytest.mark.slow
def test_criterion_1_kappa_robustness(capsys):
    # ScaledGD(lambda) across kappa = 1..7 at paper scale
    spec = preset_spec("paper-fig1", gd_tuning=())
    recs = run_sweep(spec)
    iters = [r.iters_to_target for r in recs]
    spread = _spread(recs)

    # tuned GD vs ScaledGD(lambda) on the same kappa = 7 instance
    spec7 = preset_spec("paper-fig1", values=(7.0,))
    recs7 = run_sweep(spec7)
    scaled7 = next(r for r in recs7 if r.algorithm == "scaled_gd_lambda")
    gd7 = next(r for r in recs7 if r.algorithm == "gd")
    gd_iters = _gd_lower_bound(gd7, spec7.gd_max_iters)
    ratio = gd_iters / scaled7.iters_to_target

    # desk-scale variant of the same comparison
    ci_spec = preset_spec("ci-small", values=(7.0,))
    ci7 = run_sweep(ci_spec)
    ci_scaled = next(r for r in ci7 if r.algorithm == "scaled_gd_lambda")
    ci_gd = next(r for r in ci7 if r.algorithm == "gd")
    ci_ratio = (_gd_lower_bound(ci_gd, ci_spec.gd_max_iters)
                / ci_scaled.iters_to_target)

    ok = (spread <= 3.0 and ratio >= 10.0
          and ci_scaled.stop_reason == "target_reached" and ci_ratio >= 5.0)
    _report(capsys, "criterion 1 (kappa robustness)", ok,
            f"iters={iters} spread={spread:.2f} (<=3), "
            f"gd/scaled at kappa=7: {ratio:.1f} (>=10), "
            f"ci-small ratio {ci_ratio:.1f} (>=5)")


@pytest.mark.slow
def test_criterion_2_alpha_scaling(capsys):
    recs = run_sweep(preset_spec("fig-alpha"))
    pts = [(r.axis_value, r.final_rel_err_fro) for r in recs]
    slope, _, r2 = fit_loglog_slope(pts)
    ok = 0.7 <= slope <= 1.3
    _report(capsys, "criterion 2 (alpha scaling)", ok,
            f"slope={slope:.3f} (in [0.7, 1.3]), r^2={r2:.3f}, "
            f"errors={[f'{e:.2e}' for _, e in pts]}")


def _criterion_3_verdict(recs):
    """ScaledGD(lambda) is robust to the rank r and PrecGD is not, measured
    with criterion 1's yardstick.  ScaledGD(lambda) must reach the target at
    every r with a max/min iteration spread <= 3.  PrecGD must reach it at
    the smallest r and degrade at the largest: miss the target (capped or
    diverged) or need more than 3x its smallest-r iteration count."""
    recs = sorted(recs, key=lambda r: r.axis_value)
    scaled = [r for r in recs if r.algorithm == "scaled_gd_lambda"]
    prec = [r for r in recs if r.algorithm == "prec_gd"]
    scaled_spread = _spread(scaled)
    lo, hi = prec[0], prec[-1]
    lo_ok = lo.stop_reason == "target_reached"
    prec_ratio = (hi.iters_to_target / lo.iters_to_target
                  if lo_ok and hi.stop_reason == "target_reached" else np.inf)
    ok = scaled_spread <= 3.0 and lo_ok and prec_ratio > 3.0

    def rows(rs):
        return ", ".join(
            f"r={r.axis_value:g}: "
            f"{r.iters_to_target if r.stop_reason == 'target_reached' else '-'}"
            f" ({r.stop_reason})" for r in rs)

    detail = (f"scaled_gd_lambda [{rows(scaled)}] spread={scaled_spread:.2f} "
              f"(<=3); prec_gd [{rows(prec)}] "
              f"r={hi.axis_value:g}/r={lo.axis_value:g}={prec_ratio:.2f} "
              f"(>3, inf if r={hi.axis_value:g} missed the target)")
    return ok, detail


@pytest.mark.slow
def test_criterion_3_overparameterization(capsys):
    ok, detail = _criterion_3_verdict(run_sweep(preset_spec("fig-r")))
    _report(capsys, "criterion 3 (overparameterization)", ok, detail)


def _fig_r_records(scaled, prec):
    """Synthetic fig-r rows from {r: (iters, stop_reason)} per algorithm."""
    recs = []
    for algo, rows in (("scaled_gd_lambda", scaled), ("prec_gd", prec)):
        for r, (iters, reason) in rows.items():
            reached = reason == "target_reached"
            recs.append(ExperimentRecord(
                "rank_r", float(r), 0, algo,
                iters if reached else SENTINEL_ITERS,
                1e-9 if reached else np.nan, np.nan, reason, 0.0))
    return recs


_SCALED_FIG_R = {3: (148, "target_reached"), 5: (146, "target_reached"),
                 10: (145, "target_reached"), 20: (146, "target_reached")}
_PREC_FIG_R = {3: (114, "target_reached"), 5: (152, "target_reached"),
               10: (294, "target_reached"), 20: (1274, "target_reached")}


@pytest.mark.parametrize("scaled_patch, prec_patch, expected", [
    ({}, {}, True),                                    # the measured fig-r run
    ({}, {20: (0, "max_iters")}, True),
    ({}, {20: (0, "diverged")}, True),
    ({}, {20: (342, "target_reached")}, False),       # exactly 3x: no degradation
    ({}, {3: (0, "max_iters")}, False),
    ({20: (445, "target_reached")}, {}, False),       # spread 3.07 > 3
    ({10: (0, "diverged")}, {}, False),
    ({10: (0, "max_iters")}, {}, False),
])
def test_criterion_3_verdict(scaled_patch, prec_patch, expected):
    recs = _fig_r_records({**_SCALED_FIG_R, **scaled_patch},
                          {**_PREC_FIG_R, **prec_patch})
    assert _criterion_3_verdict(recs)[0] is expected


@pytest.mark.slow
def test_criterion_4_noise_floor(capsys):
    spec = preset_spec("fig-noisy")
    recs = run_sweep(spec)
    # spectra are built with top singular value 1, so ||M*|| = 1 and the
    # recorded relative error equals the absolute Frobenius error
    ratios = {}
    for r in recs:
        e_stat = minimax_reference(r.axis_value, spec.n, spec.r_star)
        ratios[r.axis_value] = r.final_rel_err_fro / e_stat
    ok = all(0.1 <= v <= 10.0 for v in ratios.values())
    _report(capsys, "criterion 4 (noise floor)", ok,
            "err/E_stat = " + ", ".join(f"{k:g}: {v:.2f}" for k, v in
                                        sorted(ratios.items()))
            + " (all in [0.1, 10])")


def test_criterion_5_property_suites(capsys):
    t0 = time.time()
    failures = []

    # adjoint identity <= 1e-12 relative
    for backend in ("dense", "streamed"):
        op = gaussian_operator(30, 600, seed=1, backend=backend)
        gen = np.random.default_rng(2)
        for _ in range(20):
            m = gen.normal(size=(30, 30))
            m = m + m.T
            y = gen.normal(size=600)
            lhs = float(op.apply_forward(m) @ y)
            rhs = float(np.sum(m * op.apply_adjoint(y)))
            if abs(lhs - rhs) > 1e-12 * np.linalg.norm(m) * np.linalg.norm(y):
                failures.append(f"adjoint identity ({backend})")
                break

    # decomposition reassembly <= 1e-10 relative on 100 random iterates
    gt = make_ground_truth(25, 3, 3, seed=3)
    gen = np.random.default_rng(4)
    for _ in range(100):
        x = gen.normal(size=(25, 6))
        dec = decompose_iterate(x, gt)
        if np.linalg.norm(dec.reconstruct() - x) > 1e-10 * np.linalg.norm(x):
            failures.append("decomposition reassembly")
            break

    # rotation equivariance of M_t over 50 iterations <= 1e-9 relative
    gt = make_ground_truth(20, 2, 3, seed=5)
    op = gaussian_operator(20, 400, seed=6)
    y = measure(op, gt).y
    x0 = random_init(20, 4, 0.1, seed=7)
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 4)))
    base = dict(algorithm="scaled_gd_lambda", r=4, eta=0.3, lam=0.05,
                init="explicit", max_iters=50, stop=StoppingRule(patience=1000))
    xa = run(op, y, SolverConfig(x0=x0, **base)).final_state.x
    xb = run(op, y, SolverConfig(x0=x0 @ q, **base)).final_state.x
    ma = xa @ xa.T
    if np.abs(ma - xb @ xb.T).max() > 1e-9 * np.abs(ma).max():
        failures.append("rotation equivariance")

    # exact parameterization: the overparameterization block is empty / zero
    gt = make_ground_truth(15, 3, 2, seed=9)
    dec = decompose_iterate(np.random.default_rng(10).normal(size=(15, 3)), gt)
    if dec.o_tilde.size != 0:
        failures.append("exact-parameterization O~")

    # gradient vs central differences <= 1e-6 relative on 20 instances
    h = 1e-6
    for inst in range(20):
        gen = np.random.default_rng(100 + inst)
        op = gaussian_operator(6, 40, seed=inst)
        yv = gen.normal(size=40)
        x = gen.normal(size=(6, 2))
        g = gradient(op, yv, x)
        i, j = gen.integers(6), gen.integers(2)
        xp = x.copy(); xp[i, j] += h
        xm = x.copy(); xm[i, j] -= h
        fd = (loss(op, yv, xp) - loss(op, yv, xm)) / (2 * h)
        if abs(g[i, j] - fd) > 1e-6 * max(np.abs(g).max(), 1.0):
            failures.append("finite-difference gradient")
            break

    # scalar recurrence matches the step function to 1e-14
    op1 = identity_operator(1)
    y1 = np.array([1.0])
    x = np.array([[0.5]])
    s = 0.5
    for _ in range(30):
        x = step_scaled_gd_lambda(x, gradient(op1, y1, x), 0.2, 0.1)
        s = s - 0.2 * (s * s - 1.0) * s / (s * s + 0.1)
        if abs(x[0, 0] - s) > 1e-14:
            failures.append("scalar recurrence")
            break

    # empirical RIP: identity exact zero; Gaussian n=30 rank=4 m=4800 stays
    # below 0.5 over 200 trials for each of 20 operator seeds
    if estimate_rip_constant(identity_operator(10), 3, 50, seed=0).delta_hat != 0.0:
        failures.append("identity RIP")
    bad = sum(estimate_rip_constant(gaussian_operator(30, 4800, seed=1000 + s),
                                    4, 200, seed=s).delta_hat >= 0.5
              for s in range(20))
    if bad > 0:
        failures.append(f"gaussian RIP ({bad}/20 seeds)")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    _report(capsys, "criterion 5 (property suites)", ok,
            f"failures={failures or 'none'}, elapsed={elapsed:.1f}s (< 30s)")


@pytest.mark.slow
def test_criterion_6_theorem_shaped_bound(capsys):
    results = []
    for kappa, alpha in ((2.0, 1e-27), (4.0, 1e-15), (7.0, 1e-9)):
        seed = derive_seed(11, int(kappa))
        gt = make_ground_truth(60, 3, kappa, derive_seed(seed, 1))
        op = gaussian_operator(60, 1800, derive_seed(seed, 2))
        y = measure(op, gt).y
        lam = estimate_damping(op, y, 3, c_frac=0.05).lambda_hat
        cfg = SolverConfig(algorithm="scaled_gd_lambda", r=5, eta=0.3, lam=lam,
                           alpha=alpha, max_iters=3000,
                           stop=StoppingRule(patience=200),
                           seed_init=derive_seed(seed, 3))
        traj = run(op, y, cfg, oracle=gt)
        # spectra have ||X*|| = 1, so the bound is alpha^(1/3) and the
        # recorded relative error equals ||X X^T - M*||_F
        err = traj.records[-1].rel_err_fro
        bound = alpha ** (1.0 / 3.0)
        results.append((kappa, alpha, err, bound, err <= bound))
    ok = all(r[-1] for r in results)
    _report(capsys, "criterion 6 (theorem-shaped bound)", ok,
            "; ".join(f"kappa={k:g} alpha={a:g}: err={e:.2e} <= {b:.0e}: {p}"
                      for k, a, e, b, p in results))
