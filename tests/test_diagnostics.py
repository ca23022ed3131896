import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest

from scaledgd.diagnostics import decompose_iterate, phase_metrics, rel_err_op
from scaledgd.linalg import orthonormal_complement, spectral_norm
from scaledgd.problem import (GroundTruth, dense_m_star, make_approx_truth,
                              make_ground_truth)
from scaledgd.sensing import gaussian_operator, identity_operator, measure
from scaledgd.solver import SolverConfig, StoppingRule, random_init, run, run_batch


def test_complement_of_e1():
    u = np.zeros((3, 1))
    u[0, 0] = 1.0
    c = orthonormal_complement(u)
    assert c.shape == (3, 2)
    assert np.abs(c[0]).max() <= 1e-14
    assert np.allclose(c.T @ c, np.eye(2), atol=1e-14)


def test_complement_full_basis_is_empty():
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))
    assert orthonormal_complement(q).shape == (5, 0)


def test_complement_gram_properties():
    gen = np.random.default_rng(1)
    for n, k in ((6, 2), (12, 5), (30, 1)):
        u, _ = np.linalg.qr(gen.normal(size=(n, k)))
        c = orthonormal_complement(u)
        assert c.shape == (n, n - k)
        assert np.abs(c.T @ u).max() <= 1e-12
        assert np.abs(c.T @ c - np.eye(n - k)).max() <= 1e-12


def test_spectral_norm_diag_and_power_path():
    # one dense eigensolve at every size; iterations is always 0
    d = np.diag([3.0, -5.0, 1.0])
    val, iters = spectral_norm(d)
    assert val == pytest.approx(5.0, abs=1e-12)
    assert iters == 0
    gen = np.random.default_rng(2)
    a = gen.normal(size=(100, 100))
    a = a + a.T
    val, iters = spectral_norm(a)
    expect = np.abs(np.linalg.eigvalsh(a)).max()
    assert val == pytest.approx(expect, rel=1e-12)
    assert iters == 0
    assert spectral_norm(np.zeros((80, 80)))[0] == 0.0


def test_spectral_norm_power_path_is_relative_for_small_norms():
    # a matrix of norm 1e-9 gets its norm to 1e-12 relative: no absolute
    # tolerance hides in the solve
    gen = np.random.default_rng(5)
    q, _ = np.linalg.qr(gen.normal(size=(80, 80)))
    spectrum = np.linspace(-0.6, 0.6, 80)
    spectrum[0] = 1.0
    a = 1e-9 * (q * spectrum) @ q.T
    a = 0.5 * (a + a.T)
    val, iters = spectral_norm(a)
    assert abs(val - 1e-9) <= 1e-12 * 1e-9
    assert iters == 0


def _dense_rel_err_op(x, truth):
    resid = x @ x.T - dense_m_star(truth)
    return float(np.abs(np.linalg.eigvalsh(resid)).max()) / truth.spectral_norm_m()


def test_projected_rel_err_op_matches_dense_eigensolve():
    # rel_err_op from the (r* + r)-sized projection onto span[U*, X] equals
    # the largest |eigenvalue| of the dense n x n error within 1e-13
    gen = np.random.default_rng(6)
    gt = make_ground_truth(60, 3, 7.0, seed=16)
    near = np.hstack([gt.x_star, np.zeros((60, 2))]) + 1e-6 * gen.normal(size=(60, 5))
    in_span = gt.u_star @ gen.normal(size=(3, 5))
    deficient = gen.normal(size=(60, 5))
    deficient[:, 3:] = deficient[:, :2]          # rank 3 of 5
    iterates = [
        1e-27 * gen.normal(size=(60, 5)) / np.sqrt(60),  # the presets' alpha
        np.zeros((60, 5)),
        near,
        in_span,
        deficient,
        gen.normal(size=(60, 20)),                    # r = 20
        np.hstack([gt.x_star, 1e-5 * gen.normal(size=(60, 17))]),
    ]
    for x in iterates:
        assert abs(rel_err_op(x, gt) - _dense_rel_err_op(x, gt)) <= 1e-13
    assert rel_err_op(gt.x_star, gt) <= 1e-14


def test_rel_err_op_approx_truth_matches_dense_eigensolve():
    # an approximately low-rank truth's frame spans R^n: the projection onto
    # span[F, X] is n-sized and still equals the dense eigensolve
    at = make_approx_truth(20, 2, 3.0, 0.5, seed=17)
    x = np.random.default_rng(7).normal(size=(20, 3))
    assert abs(rel_err_op(x, at) - _dense_rel_err_op(x, at)) <= 1e-13


def test_approx_truth_runs_with_diagnostics():
    # run_batch takes an approximately low-rank oracle with diagnostics: every
    # record has its phase metrics, and rel_err_op at the first and the last
    # record equals the dense eigensolve
    at = make_approx_truth(12, 2, 3.0, 0.1, seed=50)
    op = identity_operator(12)
    y = measure(op, at).y
    base = SolverConfig(algorithm="scaled_gd_lambda", r=4, eta=0.5, lam=0.01,
                        alpha=1e-3, max_iters=60, stop=StoppingRule(patience=20),
                        seed_init=51, record_every=3)
    configs = [base, replace(base, seed_init=52)]
    for config, traj in zip(configs, run_batch(op, y, configs, oracle=at,
                                               collect_diagnostics=True)):
        assert len(traj.records) > 10
        for rec in traj.records:
            assert np.isfinite(astuple(rec.metrics)).all()
        x0 = random_init(12, config.r, config.alpha, config.seed_init)
        for rec, x in ((traj.records[0], x0), (traj.records[-1], traj.final_state.x)):
            assert abs(rec.rel_err_op - _dense_rel_err_op(x, at)) <= 1e-13


def test_metrics_and_reassembly_ignore_the_signs_of_v():
    # V's column signs are the SVD's.  Negating columns of V, with the columns
    # of S~ and N~ they set (and of Vperp with O~), leaves every phase metric
    # and the reassembled X as they were
    gt = make_ground_truth(15, 3, 3, seed=3)
    x = np.random.default_rng(3).normal(size=(15, 5))
    dec = decompose_iterate(x, gt)
    for signs in itertools.product((1.0, -1.0), repeat=3):
        flips = np.array(signs)
        flipped = replace(dec, v=dec.v * flips, s_tilde=dec.s_tilde * flips,
                          n_tilde=dec.n_tilde * flips,
                          v_perp=dec.v_perp * flips[:2], o_tilde=dec.o_tilde * flips[:2])
        for lam in (0.0, 0.1):
            want = astuple(phase_metrics(dec, lam))
            got = astuple(phase_metrics(flipped, lam))
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        err = np.linalg.norm(flipped.reconstruct() - dec.reconstruct())
        assert err <= 1e-12 * np.linalg.norm(dec.reconstruct())


def test_decompose_at_truth():
    gt = make_ground_truth(12, 3, 2, seed=1)
    dec = decompose_iterate(gt.x_star, gt)
    assert np.abs(dec.n_tilde).max() <= 1e-12
    assert dec.o_tilde.shape == (9, 0)
    assert np.allclose(dec.s_tilde @ dec.s_tilde.T, np.diag(gt.sigma_star**2),
                       atol=1e-12)


def test_decompose_pure_off_subspace():
    gt = make_ground_truth(6, 2, 2, seed=2)
    u_perp = orthonormal_complement(gt.u_star)
    x = u_perp[:, :3]  # lives entirely off the planted subspace
    dec = decompose_iterate(x, gt)
    assert np.abs(dec.s_tilde).max() <= 1e-12
    # all the mass sits in the misalignment and surplus blocks
    total = np.linalg.norm(dec.n_tilde) ** 2 + np.linalg.norm(dec.o_tilde) ** 2
    assert total == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-10)


def test_decomposition_reassembles():
    gen = np.random.default_rng(4)
    gt = make_ground_truth(15, 3, 3, seed=5)
    for _ in range(100):
        x = gen.normal(size=(15, 5))
        dec = decompose_iterate(x, gt)
        err = np.linalg.norm(dec.reconstruct() - x)
        assert err <= 1e-10 * np.linalg.norm(x)


def test_decomposition_block_invariants():
    # metrics do not depend on which orthonormal complement is used
    # internally; check the V frame is orthonormal and blocks are consistent
    gt = make_ground_truth(10, 2, 2, seed=6)
    x = np.random.default_rng(7).normal(size=(10, 4))
    dec = decompose_iterate(x, gt)
    assert np.allclose(dec.v.T @ dec.v, np.eye(2), atol=1e-12)
    assert np.allclose(dec.v.T @ dec.v_perp, 0.0, atol=1e-12)
    assert np.allclose(dec.v_perp.T @ dec.v_perp, np.eye(2), atol=1e-12)
    # the decomposition is invariant in M-space under right rotations of x
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 4)))
    dec2 = decompose_iterate(x @ q, gt)
    m1 = dec.s_tilde @ dec.s_tilde.T
    m2 = dec2.s_tilde @ dec2.s_tilde.T
    assert np.abs(m1 - m2).max() <= 1e-9 * np.abs(m1).max()


def test_exact_parameterization_no_overparam_block():
    gt = make_ground_truth(8, 3, 2, seed=9)
    x = np.random.default_rng(10).normal(size=(8, 3))
    dec = decompose_iterate(x, gt)
    assert dec.o_tilde.shape == (5, 0)
    metrics = phase_metrics(dec, lam=0.1)
    assert metrics.overparam_norm == 0.0
    # the empty surplus block adds a zero n x r matrix to the reassembly
    stack = np.stack([x, 2.0 * x])
    for xs in (x, stack):
        assert np.linalg.norm(decompose_iterate(xs, gt).reconstruct() - xs) \
            <= 1e-10 * np.linalg.norm(xs)


def test_gamma_norm_scaled_truth():
    # x = 0.5 X*: S~ S~^T = 0.25 Sigma*^2, so Gamma = -0.75 I exactly
    gt = make_ground_truth(9, 3, 4, seed=11)
    dec = decompose_iterate(0.5 * gt.x_star, gt)
    m = phase_metrics(dec, lam=0.0)
    assert m.gamma_norm == pytest.approx(0.75, abs=1e-12)
    assert m.misalign <= 1e-10


def test_sigma_min_scaled_values():
    gt = make_ground_truth(7, 2, 2, seed=12)
    dec = decompose_iterate(gt.x_star, gt)
    # at the truth with lam = 0 the scaled block is an isometry
    assert phase_metrics(dec, 0.0).sigma_min_scaled == pytest.approx(1.0, abs=1e-12)
    lam = 0.3
    expect = min(s / np.sqrt(s * s + lam) for s in gt.sigma_star)
    assert phase_metrics(dec, lam).sigma_min_scaled == pytest.approx(expect, rel=1e-12)


def test_misalign_infinite_when_signal_singular():
    gt = make_ground_truth(6, 2, 2, seed=13)
    x = np.zeros((6, 3))
    x[:, 0] = orthonormal_complement(gt.u_star)[:, 0]
    m = phase_metrics(decompose_iterate(x, gt), 0.0)
    assert np.isinf(m.misalign)


def test_reconstruction_error_at_zero_and_truth():
    # the errors a run records at X = 0 and at X = X*
    gt = make_ground_truth(10, 3, 2, seed=14)
    op = identity_operator(10)
    y = measure(op, gt).y
    expect_fro = np.linalg.norm(gt.sigma_star**2) / gt.sigma_star[0] ** 2
    for x, fro, op_err in ((np.zeros((10, 3)), expect_fro, 1.0), (gt.x_star, 0.0, 0.0)):
        cfg = SolverConfig(algorithm="gd", r=3, eta=0.1, init="explicit", x0=x,
                           max_iters=0, stop=StoppingRule(patience=1))
        rec, = run(op, y, cfg, oracle=gt).records
        assert rec.rel_err_fro == pytest.approx(fro, rel=1e-10, abs=1e-12)
        assert rec.rel_err_op == pytest.approx(op_err, abs=1e-12)
        assert rec.rel_err_op == rel_err_op(x, gt)


def test_phase_metrics_along_trajectory():
    # the scaled signal strength grows out of the small init and the gamma
    # error collapses once the signal saturates
    gt = make_ground_truth(20, 2, 2, seed=22)
    op = gaussian_operator(20, 800, seed=23)
    y = measure(op, gt).y
    lam = 0.05 * gt.sigma_star[-1] ** 2
    cfg = SolverConfig(algorithm="scaled_gd_lambda", r=4, eta=0.3, lam=lam,
                       alpha=1e-9, max_iters=300,
                       stop=StoppingRule(target_rel_err=1e-9), seed_init=24)
    traj = run(op, y, cfg, oracle=gt, collect_diagnostics=True)
    svals = [r.metrics.sigma_min_scaled for r in traj.records]
    assert svals[0] < 1e-6
    assert max(svals) > 0.9
    # monotone growth (up to small tolerance) until the signal saturates
    cross = next(i for i, v in enumerate(svals) if v > 1 / np.sqrt(10))
    for a, b in zip(svals[:cross], svals[1:cross + 1]):
        assert b >= a - 1e-3
    assert traj.records[-1].metrics.gamma_norm <= 1e-6
    assert traj.records[-1].metrics.overparam_norm <= 1e-3


def test_decompose_with_precomputed_complement_is_identical():
    # a fresh truth computes u_perp in the call; gt's is computed before it
    gen = np.random.default_rng(30)
    gt = make_ground_truth(25, 3, 4, seed=31)
    assert gt.u_perp.shape == (25, 22)
    for r in (3, 5):
        x = gen.normal(size=(25, r))
        a = phase_metrics(decompose_iterate(x, make_ground_truth(25, 3, 4, seed=31)), 0.05)
        b = phase_metrics(decompose_iterate(x, gt), 0.05)
        assert a == b


def test_stacked_diagnostics_match_one_iterate_at_a_time():
    # a stack of five iterates; in the third, U*^T X has rank 1 of r* = 3.
    # With U* the first three axes, U*^T X is X's first three rows exactly
    gen = np.random.default_rng(40)
    gt = GroundTruth(r_star=3, frame=np.eye(12)[:, :3], scales=np.array([1.0, 0.6, 0.25]))
    xs = gen.normal(size=(5, 12, 5))
    xs[2, 1:3] = 0.0
    stacked_dec = decompose_iterate(xs, gt)
    stacked = phase_metrics(stacked_dec, 0.05)
    assert [np.isinf(m.misalign) for m in stacked] == [False, False, True, False, False]
    for i, x in enumerate(xs):
        dec = decompose_iterate(x, gt)
        for name in ("s_tilde", "n_tilde", "o_tilde", "v", "v_perp"):
            assert np.array_equal(getattr(stacked_dec, name)[i], getattr(dec, name))
        want = phase_metrics(dec, 0.05)
        assert stacked[i] == want
    approx = make_approx_truth(12, 3, 4.0, 0.5, seed=41)
    for truth in (gt, approx):
        assert rel_err_op(xs, truth).tolist() == [rel_err_op(x, truth) for x in xs]
    frames = np.linalg.qr(xs)[0]
    stacked_comp = orthonormal_complement(frames)
    for frame, comp in zip(frames, stacked_comp):
        assert np.array_equal(comp, orthonormal_complement(frame))
