import numpy as np
import pytest

from scaledgd.linalg import orthonormal_complement
from scaledgd.problem import (GroundTruth, dense_m_star, make_approx_truth,
                              make_ground_truth)
from scaledgd.sensing import identity_operator, measure


def test_prescribed_spectrum():
    gt = make_ground_truth(4, 2, 2, seed=7)
    assert np.allclose(gt.sigma_star, [1.0, 0.5])
    assert gt.sigma_star[0] / gt.sigma_star[-1] == pytest.approx(2.0, abs=1e-12)


def test_rank_one_condition_number_is_one():
    gt = make_ground_truth(4, 1, 5, seed=7)
    assert np.array_equal(gt.sigma_star, [1.0])
    assert gt.sigma_star[0] / gt.sigma_star[-1] == 1.0


def test_paper_scale_condition_number():
    gt = make_ground_truth(150, 3, 7, seed=3)
    assert gt.sigma_star[0] / gt.sigma_star[-1] == pytest.approx(7.0, abs=1e-12)


def test_orthonormal_frame():
    gt = make_ground_truth(25, 4, 3, seed=1)
    assert np.abs(gt.u_star.T @ gt.u_star - np.eye(4)).max() < 1e-12


def test_determinism():
    a = make_ground_truth(20, 3, 4, seed=99)
    b = make_ground_truth(20, 3, 4, seed=99)
    assert np.array_equal(a.u_star, b.u_star)
    assert np.array_equal(a.sigma_star, b.sigma_star)
    c = make_ground_truth(20, 3, 4, seed=100)
    assert not np.array_equal(a.u_star, c.u_star)


def test_validation():
    with pytest.raises(ValueError):
        make_ground_truth(4, 5, 2, seed=0)
    with pytest.raises(ValueError):
        make_ground_truth(4, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        make_ground_truth(0, 1, 2, seed=0)


def test_dense_m_star_axis_aligned():
    gt = GroundTruth(r_star=1, frame=np.array([[1.0], [0.0]]), scales=np.array([2.0]))
    assert np.allclose(dense_m_star(gt), [[4.0, 0.0], [0.0, 0.0]])


def test_dense_m_star_rotated():
    u = np.array([[1.0], [1.0]]) / np.sqrt(2)
    gt = GroundTruth(r_star=1, frame=u, scales=np.array([1.0]))
    assert np.allclose(dense_m_star(gt), [[0.5, 0.5], [0.5, 0.5]])


def test_dense_m_star_eigenvalues():
    # eigendecomposition oracle: spectrum is sigma*^2 padded with zeros
    gt = make_ground_truth(12, 3, 5, seed=4)
    vals = np.sort(np.linalg.eigvalsh(dense_m_star(gt)))[::-1]
    expect = np.concatenate([gt.sigma_star**2, np.zeros(9)])
    assert np.allclose(vals, np.sort(expect)[::-1], atol=1e-10)


def test_dense_m_star_symmetric_and_norm():
    gt = make_ground_truth(30, 4, 6, seed=8)
    m = dense_m_star(gt)
    assert np.abs(m - m.T).max() <= 1e-14
    top = np.abs(np.linalg.eigvalsh(m)).max()
    assert top == pytest.approx(gt.sigma_star[0] ** 2, abs=1e-10)


def test_approx_truth_tail_values():
    # direct evaluation of the decay formula with sigma_min^2 = 0.25: the tail
    # scales square to the tail eigenvalues, after the planted r* = 2
    at = make_approx_truth(4, 2, 2, tail_decay=0.1, seed=7)
    gt = make_ground_truth(4, 2, 2, seed=7)
    assert (at.frame.shape[0], at.r_star) == (4, 2)
    assert np.allclose(at.scales[2:] ** 2, [0.025, 0.0025])
    assert np.array_equal(at.sigma_star, gt.sigma_star)
    assert np.array_equal(at.u_star, gt.u_star)
    assert np.abs(at.frame.T @ at.frame - np.eye(4)).max() < 1e-12
    assert at.spectral_norm_m() == gt.spectral_norm_m() == 1.0


def test_approx_truth_psd_and_truncation():
    at = make_approx_truth(15, 3, 3, tail_decay=0.3, seed=2)
    m = dense_m_star(at)
    vals = np.linalg.eigvalsh(m)
    assert vals.min() > -1e-12
    # top r* eigenvalues recover the planted spectrum
    top = np.sort(vals)[::-1][:3]
    assert np.allclose(top, at.sigma_star**2, atol=1e-10)
    # best rank-r* approximation is the planted part
    assert at.scales[3] <= at.sigma_star[-1]


def test_approx_truth_rejects_bad_decay():
    for bad in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            make_approx_truth(6, 2, 2, tail_decay=bad, seed=0)


def test_noise_model():
    # the noise is what measure adds to A(M*)
    op, gt = identity_operator(4), make_ground_truth(4, 2, 2, seed=0)
    clean = measure(op, gt).y
    with pytest.raises(ValueError):
        measure(op, gt, sigma=-1.0)
    assert np.array_equal(measure(op, gt, 0.0, 5).y - clean, np.zeros(10))
    a = measure(op, gt, 0.5, 5).y - clean
    assert np.array_equal(a, measure(op, gt, 0.5, 5).y - clean)


def test_u_perp_is_the_cached_complement():
    gt = make_ground_truth(9, 3, 2, seed=4)
    assert gt.u_perp is gt.u_perp
    assert np.array_equal(gt.u_perp, orthonormal_complement(gt.u_star))
    # an approximately low-rank truth's tail lies on the same complement
    at = make_approx_truth(9, 3, 2, tail_decay=0.5, seed=4)
    assert np.array_equal(at.frame[:, 3:], gt.u_perp)
    assert np.array_equal(at.u_perp, gt.u_perp)
