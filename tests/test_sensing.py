import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from scaledgd import rng, sensing
from scaledgd.problem import dense_m_star, make_ground_truth
from scaledgd.sensing import (MemoryCapError, SensingOperator, estimate_rip_constant,
                              gaussian_operator, identity_operator, measure)


@pytest.fixture(autouse=True)
def no_kept_operator():
    # each test builds its own operators, so every blocked-build test runs the
    # threaded build even where another test used the same (n, m, seed)
    sensing._kept.clear()
    yield
    sensing._kept.clear()


def _rand_sym(gen, n):
    a = gen.normal(size=(n, n))
    return a + a.T


def test_gaussian_entry_variances():
    # moment oracle over 1e5 independent row streams (n=2, one row each)
    op = gaussian_operator(2, 100_000, seed=31)
    rows = op._storage
    mats = np.empty((op.m, 2, 2))
    for i in range(op.m):
        mats[i] = op.unsvec(rows[i])
    m = op.m
    assert abs(m * mats[:, 0, 0].var() - 1.0) < 0.05
    assert abs(m * mats[:, 1, 1].var() - 1.0) < 0.05
    assert abs(m * mats[:, 0, 1].var() - 0.5) < 0.05 * 0.5
    assert np.array_equal(mats[:, 0, 1], mats[:, 1, 0])


@pytest.mark.parametrize("make_op", [
    lambda: gaussian_operator(10, 300, seed=4),
    lambda: gaussian_operator(10, 1, seed=4),  # one row: k x 1 forward, 1-row adjoint
    lambda: identity_operator(10),
])
def test_stacked_passes_match_single_passes(make_op):
    # a stack of k matrices, residuals or factors gives, row by row, what one
    # matrix, residual or factor at a time gives, within 1e-12 relative
    op = make_op()
    gen = np.random.default_rng(3)
    mats = np.stack([_rand_sym(gen, 10) for _ in range(3)])
    resids = gen.normal(size=(3, op.m))
    factors = gen.normal(size=(3, 10, 4))
    y = gen.normal(size=op.m)
    forward, adjoint = op.apply_forward(mats), op.apply_adjoint(resids)
    losses, grads = op.residual_grad(factors, y)
    assert forward.shape == (3, op.m) and adjoint.shape == (3, 10, 10)
    assert losses.shape == (3,) and grads.shape == (3, 10, 10)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for j in range(3):
        assert close(forward[j], op.apply_forward(mats[j]))
        assert close(adjoint[j], op.apply_adjoint(resids[j]))
        f, w = op.residual_grad(factors[j], y)
        assert abs(losses[j] - f) <= 1e-12 * f
        assert close(grads[j], w)


def test_stacked_pass_shape_errors():
    op = gaussian_operator(4, 20, seed=1)
    with pytest.raises(ValueError):
        op.apply_forward(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros((2, 21)))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros((2, 2, 20)))


def test_dense_rows_are_streamed_rows():
    # the documented row contract: row i is Philox stream i of the seed, scaled
    n, m = 10, 300
    op = gaussian_operator(n, m, seed=3)
    for i in range(m):
        want = rng.normals(3, i, n * (n + 1) // 2) * (1.0 / np.sqrt(m))
        assert np.array_equal(op._storage[i], want), i


def _cpus(monkeypatch, count=64):
    # as if `count` CPUs were usable; 64 lets the build use all the threads it may
    monkeypatch.setattr(sensing.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.mark.parametrize("n, m", [
    (1, 1),      # dim 1, one row
    (2, 3),      # odd dim, m below the thread cap
    (3, 5),      # even dim
    (150, 1),    # two rows per block, one row in all
    (150, 7),    # two rows per block, partial last block
    (60, 35),    # 17 rows per block, partial last block
    (30, 141),   # 70 rows per block, partial last block
])
def test_blocked_build_rows_are_row_svec(monkeypatch, n, m):
    # every row, in place and in order, is bit for bit the documented row
    _cpus(monkeypatch)
    op = gaussian_operator(n, m, seed=12)
    assert op._storage.shape == (m, n * (n + 1) // 2)
    for i in range(m):
        assert np.array_equal(op._storage[i], op.row_svec(i)), i


def test_blocked_build_under_fast_thread_switching(monkeypatch):
    # 8 threads on two-row blocks, switching every microsecond: no block is
    # lost, repeated into the wrong rows or half written
    _cpus(monkeypatch)
    monkeypatch.setattr(sensing, "_BLOCK_BYTES", 16 * 5 * 2)  # 2 rows per block at n = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        op = gaussian_operator(4, 501, seed=8)
    finally:
        sys.setswitchinterval(interval)
    for i in range(op.m):
        assert np.array_equal(op._storage[i], op.row_svec(i)), i


def test_blocked_build_propagates_worker_error(monkeypatch):
    # a helper thread fails on its first stream while the calling thread
    # waits for that; the error surfaces and every helper has stopped
    _cpus(monkeypatch)
    monkeypatch.setattr(sensing, "_BLOCK_BYTES", 16 * 8)  # 8 rows per block at n = 4
    rekey = rng._rekey
    helper_failed = threading.Event()

    def failing(gen, seed, stream):
        if threading.current_thread() is threading.main_thread():
            helper_failed.wait(10)
            return rekey(gen, seed, stream)
        helper_failed.set()
        raise RuntimeError(f"stream {stream}")

    monkeypatch.setattr(rng, "_rekey", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="stream"):
        gaussian_operator(4, 60, seed=1)
    assert helper_failed.is_set()
    assert threading.active_count() == before


def _count_started_threads(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_blocked_build_makes_one_generator_per_worker(monkeypatch):
    # each worker builds one Philox and re-keys it for every row it draws:
    # 38 blocks over 8 workers make at most 8 generators, not one a row
    _cpus(monkeypatch)
    monkeypatch.setattr(sensing, "_BLOCK_BYTES", 16 * 8)  # 8 rows per block at n = 4
    started = _count_started_threads(monkeypatch)
    makers = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        makers.append(threading.current_thread())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    op = gaussian_operator(4, 300, seed=2)
    assert 1 <= len(makers) <= 1 + len(started) <= sensing._BUILD_THREADS_CAP
    assert len(set(makers)) == len(makers)  # no worker made two
    for i in (0, 7, 8, 150, 299):
        assert np.array_equal(op._storage[i], op.row_svec(i)), i


@pytest.mark.parametrize("cpus, cap, most", [(64, 3, 3), (2, 8, 2), (1, 8, 1)])
def test_blocked_build_thread_bound(monkeypatch, cpus, cap, most):
    # min(CPUs, cap) threads work, the calling thread included, though 20
    # blocks would allow more
    assert sensing._BUILD_THREADS_CAP <= 8
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(sensing, "_BUILD_THREADS_CAP", cap)
    started = _count_started_threads(monkeypatch)
    op = gaussian_operator(150, 40, seed=5)
    assert 1 + len(started) == most
    for i in (0, 1, 38, 39):
        assert np.array_equal(op._storage[i], op.row_svec(i))


def test_forward_trace_example():
    # single hand-built A_1 = I_2 in svec coordinates
    a1 = identity_operator(2).svec(np.eye(2))
    op = SensingOperator(2, 1, storage=a1[None])
    y = op.apply_forward(np.diag([1.0, 2.0]))
    assert y == pytest.approx([3.0])
    assert np.array_equal(op.apply_forward(np.zeros((2, 2))), [0.0])


def test_built_operator_is_read_only():
    # writing into a built operator, into the storage a hand-made one was
    # given, or into any operator's index arrays raises: one operator is
    # shared by every caller of its (n, m, seed)
    op = gaussian_operator(3, 4, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        op._storage[0] = 0.0
    storage = np.zeros((1, 3))
    SensingOperator(2, 1, storage=storage)
    with pytest.raises(ValueError, match="read-only"):
        storage[0, 0] = 1.0
    for each in (op, identity_operator(3)):
        for arr in (*each._iu, each._scale, each._full):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_repeated_build_returns_the_kept_operator():
    op = gaussian_operator(6, 30, seed=9)
    assert gaussian_operator(6, 30, seed=9) is op
    assert gaussian_operator(np.int64(6), np.int64(30), np.int64(9)) is op
    assert gaussian_operator(6, 30, seed=10) is not op
    again = gaussian_operator(6, 30, seed=9)
    assert again is not op
    assert again._storage.tobytes() == op._storage.tobytes()


def test_other_build_frees_the_kept_operator():
    # once its callers drop it, the kept operator goes with the next other build
    ref = weakref.ref(gaussian_operator(5, 20, seed=1))
    gc.collect()
    assert ref() is not None  # kept, though no caller holds it
    other = gaussian_operator(5, 20, seed=2)
    gc.collect()
    assert ref() is None
    assert gaussian_operator(5, 20, seed=2) is other


def test_failed_build_keeps_nothing(monkeypatch):
    op = gaussian_operator(4, 60, seed=1)
    ref = weakref.ref(op)
    monkeypatch.setattr(rng, "_rekey", lambda gen, seed, stream: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        gaussian_operator(4, 60, seed=2)
    with pytest.raises(ValueError, match="n must be >= 1"):
        gaussian_operator(0, 60, seed=1)
    assert sensing._kept == {}
    monkeypatch.undo()
    rebuilt = gaussian_operator(4, 60, seed=1)
    assert rebuilt is not op and rebuilt._storage.tobytes() == op._storage.tobytes()
    del op
    gc.collect()
    assert ref() is None


def test_forward_linearity():
    op = gaussian_operator(6, 30, seed=9)
    gen = np.random.default_rng(1)
    for _ in range(20):
        m1, m2 = _rand_sym(gen, 6), _rand_sym(gen, 6)
        a, b = gen.normal(), gen.normal()
        lhs = op.apply_forward(a * m1 + b * m2)
        rhs = a * op.apply_forward(m1) + b * op.apply_forward(m2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


def test_adjoint_identity():
    op = gaussian_operator(7, 25, seed=3)
    gen = np.random.default_rng(2)
    for _ in range(25):
        m = _rand_sym(gen, 7)
        y = gen.normal(size=25)
        lhs = float(op.apply_forward(m) @ y)
        rhs = float(np.sum(m * op.apply_adjoint(y)))
        scale = np.linalg.norm(m) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_adjoint_of_basis_vector_is_sensing_matrix():
    op = gaussian_operator(5, 12, seed=4)
    for i in (0, 7, 11):
        e = np.zeros(12)
        e[i] = 1.0
        assert np.allclose(op.apply_adjoint(e), op.unsvec(op.row_svec(i)), atol=1e-15)


def test_adjoint_output_exactly_symmetric():
    op = gaussian_operator(9, 20, seed=8)
    out = op.apply_adjoint(np.random.default_rng(3).normal(size=20))
    assert np.abs(out - out.T).max() == 0.0
    nrm = op.apply_adjoint(op.apply_forward(_rand_sym(np.random.default_rng(4), 9)))
    assert np.abs(nrm - nrm.T).max() == 0.0


def test_residual_grad_matches_normal_form():
    gen = np.random.default_rng(9)
    op = gaussian_operator(7, 30, seed=4)
    x = gen.normal(size=(7, 3))
    y = gen.normal(size=30)
    f, w = op.residual_grad(x, y)
    resid = op.apply_forward(x @ x.T) - y
    assert f == 0.25 * float(resid @ resid)
    expect = op.apply_adjoint(op.apply_forward(x @ x.T)) - op.apply_adjoint(y)
    assert np.abs(w - expect).max() <= 1e-12 * np.abs(expect).max()
    assert np.abs(w - w.T).max() == 0.0


def test_identity_operator():
    op = identity_operator(2)
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(op.apply_adjoint(op.apply_forward(m)), m)
    v = op.apply_forward(m)
    assert float(v @ v) == pytest.approx(np.sum(m * m), abs=1e-14)
    assert np.allclose(op.apply_adjoint(v), m, atol=1e-15)


def test_identity_operator_has_no_gaussian_rows():
    with pytest.raises(ValueError, match="identity"):
        identity_operator(3).row_svec(0)


def test_normal_unbiased():
    # E(A*A) = identity: Monte-Carlo over independent operators
    n = 4
    gen = np.random.default_rng(11)
    m_mat = _rand_sym(gen, n)
    acc = np.zeros((n, n))
    ops = 10_000
    for k in range(ops):
        op = gaussian_operator(n, 8, seed=k)
        acc += op.apply_adjoint(op.apply_forward(m_mat))
    acc /= ops
    assert np.linalg.norm(acc - m_mat) <= 0.05 * np.linalg.norm(m_mat)


def test_memory_cap():
    # 1000 x 1000 matrices and 10 000 rows would take 37 GiB; refused before
    # any allocation
    with pytest.raises(MemoryCapError, match="cap 2.00 GiB"):
        gaussian_operator(1000, 10_000, seed=0)


@pytest.mark.parametrize("n", [0, -2])
def test_gaussian_operator_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        gaussian_operator(n, 5, seed=0)


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
    meas = measure(op, gt, 0.0, 9)
    assert np.array_equal(meas.y, clean)
    a = measure(op, gt, 0.1, 9)
    b = measure(op, gt, 0.1, 9)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, clean)


def test_measure_adds_sigma_times_the_noise_stream():
    gt = make_ground_truth(10, 2, 3, seed=1)
    op = gaussian_operator(10, 50, seed=2)
    clean = op.apply_forward(dense_m_star(gt))
    for sigma, seed in ((1e-3, 0), (0.7, 12345)):
        want = clean + sigma * rng.normals(seed, 0, op.m)
        assert np.array_equal(measure(op, gt, sigma, seed).y, want)
    for bad in (-1e-12, -0.1):
        with pytest.raises(ValueError, match="noise sigma must be >= 0"):
            measure(op, gt, bad, 9)


def test_rip_identity_zero():
    est = estimate_rip_constant(identity_operator(10), 3, 50, seed=0)
    assert est.delta_hat == 0.0


def test_rip_gaussian_well_sampled():
    # m ~ 40 n r keeps the sampled constant comfortably below 0.5
    n, rank = 30, 4
    op = gaussian_operator(n, 40 * n * rank, seed=17)
    est = estimate_rip_constant(op, rank, 200, seed=1)
    assert 0.0 < est.delta_hat < 0.5


def test_rip_trials_go_forward_in_chunks(monkeypatch):
    # 150 trials make stacked passes of 64, 64 and 22 matrices; one trial a
    # pass gives the same ratios up to rounding
    op = gaussian_operator(8, 300, seed=5)
    stacks = []
    forward = op.apply_forward
    op.apply_forward = lambda mats: stacks.append(len(mats)) or forward(mats)
    stacked = estimate_rip_constant(op, 2, 150, seed=6)
    assert stacks == [64, 64, 22]
    monkeypatch.setattr(sensing, "_RIP_CHUNK", 1)
    alone = estimate_rip_constant(op, 2, 150, seed=6)
    assert len(stacks) == 3 + 150
    assert stacked.delta_hat == pytest.approx(alone.delta_hat, rel=1e-13)


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


def _unsvec_by_scatter(op, v):
    # the scatter construction: the upper triangle from v, plus its
    # transpose, with the doubled diagonal halved
    out = np.zeros(v.shape[:-1] + (op.n, op.n))
    out[..., op._iu[0], op._iu[1]] = v / op._scale
    out = out + np.swapaxes(out, -1, -2)
    diag = np.arange(op.n)
    out[..., diag, diag] *= 0.5
    return out


def test_unsvec_gather_matches_scatter_bit_for_bit():
    # an off-diagonal entry is v / sqrt(2) + 0 and a diagonal one (v + v) * 0.5
    # in the scatter, so the gather gives the same bits, and an exactly
    # symmetric matrix.  A stack comes out C-contiguous, as the scatter's did,
    # so the products with it stay on the fast path
    gen = np.random.default_rng(50)
    for n in (1, 2, 7):
        op = identity_operator(n)
        for shape in ((op.dim,), (3, op.dim)):
            v = gen.normal(size=shape)
            got = op.unsvec(v)
            assert got.tobytes() == _unsvec_by_scatter(op, v).tobytes()
            assert got.tobytes() == np.swapaxes(got, -1, -2).copy().tobytes()
            assert got.flags.c_contiguous
