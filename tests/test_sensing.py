import numpy as np
import pytest

from scaledgd.problem import NoiseModel, dense_m_star, make_ground_truth
from scaledgd.sensing import (MemoryCapError, estimate_rip_constant,
                              gaussian_operator, identity_operator, measure)


def _rand_sym(gen, n):
    a = gen.normal(size=(n, n))
    return a + a.T


def test_gaussian_entry_variances():
    # moment oracle over 1e5 independent row streams (n=2, one row each)
    op = gaussian_operator(2, 100_000, seed=31, backend="streamed")
    rows = np.vstack([rows for _, rows in op._chunks()])
    mats = np.empty((op.m, 2, 2))
    for i in range(op.m):
        mats[i] = op.unsvec(rows[i])
    m = op.m
    assert abs(m * mats[:, 0, 0].var() - 1.0) < 0.05
    assert abs(m * mats[:, 1, 1].var() - 1.0) < 0.05
    assert abs(m * mats[:, 0, 1].var() - 0.5) < 0.05 * 0.5
    assert np.array_equal(mats[:, 0, 1], mats[:, 1, 0])


def test_backend_equivalence():
    dense = gaussian_operator(8, 40, seed=5, backend="dense")
    streamed = gaussian_operator(8, 40, seed=5, backend="streamed")
    gen = np.random.default_rng(0)
    for _ in range(100):
        m = _rand_sym(gen, 8)
        yd, ys = dense.apply_forward(m), streamed.apply_forward(m)
        assert np.abs(yd - ys).max() <= 1e-12 * max(np.abs(yd).max(), 1.0)
        y = gen.normal(size=40)
        ad, as_ = dense.apply_adjoint(y), streamed.apply_adjoint(y)
        assert np.abs(ad - as_).max() <= 1e-12 * max(np.abs(ad).max(), 1.0)


def test_dense_rows_are_streamed_rows():
    # m spans two streamed chunks; both backends take their rows from row_svec
    dense = gaussian_operator(10, 300, seed=3, backend="dense")
    streamed = gaussian_operator(10, 300, seed=3, backend="streamed")
    rows = np.vstack([rows for _, rows in streamed._chunks()])
    assert np.array_equal(dense._storage, rows)


def test_forward_trace_example():
    # single hand-built A_1 = I_2 in svec coordinates
    op = gaussian_operator(2, 1, seed=0, backend="dense")
    op._storage[0] = op.svec(np.eye(2))
    y = op.apply_forward(np.diag([1.0, 2.0]))
    assert y == pytest.approx([3.0])
    assert np.array_equal(op.apply_forward(np.zeros((2, 2))), [0.0])


def test_forward_linearity():
    op = gaussian_operator(6, 30, seed=9, backend="dense")
    gen = np.random.default_rng(1)
    for _ in range(20):
        m1, m2 = _rand_sym(gen, 6), _rand_sym(gen, 6)
        a, b = gen.normal(), gen.normal()
        lhs = op.apply_forward(a * m1 + b * m2)
        rhs = a * op.apply_forward(m1) + b * op.apply_forward(m2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


def test_adjoint_identity():
    for backend in ("dense", "streamed"):
        op = gaussian_operator(7, 25, seed=3, backend=backend)
        gen = np.random.default_rng(2)
        for _ in range(25):
            m = _rand_sym(gen, 7)
            y = gen.normal(size=25)
            lhs = float(op.apply_forward(m) @ y)
            rhs = float(np.sum(m * op.apply_adjoint(y)))
            scale = np.linalg.norm(m) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_adjoint_of_basis_vector_is_sensing_matrix():
    op = gaussian_operator(5, 12, seed=4, backend="dense")
    for i in (0, 7, 11):
        e = np.zeros(12)
        e[i] = 1.0
        assert np.allclose(op.apply_adjoint(e), op.sensing_matrix(i), atol=1e-15)


def test_adjoint_output_exactly_symmetric():
    for backend in ("dense", "streamed"):
        op = gaussian_operator(9, 20, seed=8, backend=backend)
        out = op.apply_adjoint(np.random.default_rng(3).normal(size=20))
        assert np.abs(out - out.T).max() == 0.0
        nrm = op.apply_normal(_rand_sym(np.random.default_rng(4), 9))
        assert np.abs(nrm - nrm.T).max() == 0.0


def test_normal_is_adjoint_of_forward():
    for backend in ("dense", "streamed"):
        op = gaussian_operator(6, 18, seed=6, backend=backend)
        m = _rand_sym(np.random.default_rng(5), 6)
        expect = op.apply_adjoint(op.apply_forward(m))
        assert np.abs(op.apply_normal(m) - expect).max() <= 1e-12


def test_residual_grad_matches_normal_form():
    gen = np.random.default_rng(9)
    for backend in ("dense", "streamed"):
        op = gaussian_operator(7, 30, seed=4, backend=backend)
        x = gen.normal(size=(7, 3))
        y = gen.normal(size=30)
        f, w = op.residual_grad(x, y)
        resid = op.apply_forward(x @ x.T) - y
        assert f == 0.25 * float(resid @ resid)
        expect = op.apply_normal(x @ x.T) - op.apply_adjoint(y)
        assert np.abs(w - expect).max() <= 1e-12 * np.abs(expect).max()
        assert np.abs(w - w.T).max() == 0.0


def test_identity_operator():
    op = identity_operator(2)
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(op.apply_normal(m), m)
    v = op.apply_forward(m)
    assert float(v @ v) == pytest.approx(np.sum(m * m), abs=1e-14)
    assert np.allclose(op.apply_adjoint(v), m, atol=1e-15)


def test_normal_unbiased():
    # E(A*A) = identity: Monte-Carlo over independent operators
    n = 4
    gen = np.random.default_rng(11)
    m_mat = _rand_sym(gen, n)
    acc = np.zeros((n, n))
    ops = 10_000
    for k in range(ops):
        op = gaussian_operator(n, 8, seed=k, backend="dense")
        acc += op.apply_normal(m_mat)
    acc /= ops
    assert np.linalg.norm(acc - m_mat) <= 0.05 * np.linalg.norm(m_mat)


def test_memory_cap():
    with pytest.raises(MemoryCapError):
        gaussian_operator(100, 10_000, seed=0, backend="dense",
                          memory_cap_bytes=10_000_000)
    # streamed has no cap
    gaussian_operator(100, 10_000, seed=0, backend="streamed")


def test_dimension_mismatch():
    op = gaussian_operator(4, 6, seed=0)
    with pytest.raises(ValueError):
        op.apply_forward(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros(5))


def test_measure_noiseless_and_deterministic():
    gt = make_ground_truth(10, 2, 3, seed=1)
    op = gaussian_operator(10, 50, seed=2)
    clean = op.apply_forward(dense_m_star(gt))
    meas = measure(op, gt, NoiseModel(sigma=0.0, seed=9))
    assert np.array_equal(meas.y, clean)
    a = measure(op, gt, NoiseModel(sigma=0.1, seed=9))
    b = measure(op, gt, NoiseModel(sigma=0.1, seed=9))
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, clean)


def test_rip_identity_zero():
    est = estimate_rip_constant(identity_operator(10), 3, 50, seed=0)
    assert est.delta_hat == 0.0
    assert est.min_ratio == 1.0 and est.max_ratio == 1.0


def test_rip_gaussian_well_sampled():
    # m ~ 40 n r keeps the sampled constant comfortably below 0.5
    n, rank = 30, 4
    op = gaussian_operator(n, 40 * n * rank, seed=17)
    est = estimate_rip_constant(op, rank, 200, seed=1)
    assert 0.0 < est.delta_hat < 0.5


def test_rip_single_measurement_near_one():
    op = gaussian_operator(8, 1, seed=0)
    est = estimate_rip_constant(op, 2, 100, seed=2)
    assert est.delta_hat > 0.9


def test_rip_validation():
    op = identity_operator(5)
    with pytest.raises(ValueError):
        estimate_rip_constant(op, 6, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_rip_constant(op, 0, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_rip_constant(op, 2, 0, seed=0)
