"""Sensing operators on symmetric matrices.

A Gaussian-design operator maps a symmetric n x n matrix M to m inner
products <A_i, M> where each A_i is symmetric with diagonal entries
N(0, 1/m) and off-diagonal entries N(0, 1/(2m)).

Internally matrices live in scaled symmetric vectorization (svec)
coordinates: the upper triangle flattened row-major with off-diagonal
entries multiplied by sqrt(2), so the Frobenius inner product is a plain
dot product.  In svec coordinates every entry of a Gaussian-design row is
i.i.d. N(0, 1/m), so row i of the operator is exactly

    normals(seed, stream=i, count=n(n+1)/2) * (1.0 / sqrt(m))

from the package's documented Philox/Box-Muller stream (see rng.py), as
`SensingOperator.row_svec` gives it.  The dense operator materializes these
rows as an m x n(n+1)/2 array S, built in blocks of rows on a few threads
with every row bit-identical to `row_svec`; a forward pass is svec(M) S^T
and an adjoint pass unsvec(y S).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .problem import NoiseModel, dense_m_star

MEMORY_CAP_BYTES = 2 << 30  # 2 GiB: the largest dense operator built
_BLOCK_BYTES = 256 << 10  # uniforms of one block of rows in the dense build
_BUILD_THREADS_CAP = 8
_RIP_EIGS_PAD = 1e-300  # keep trial eigenvalues away from exact zero
_RIP_CHUNK = 64  # trial matrices per stacked forward pass


class MemoryCapError(MemoryError):
    pass


def _svec_scale(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return iu, scale


class SensingOperator:
    """Linear map from symmetric n x n matrices to R^m.

    kind is one of 'gaussian_dense', 'identity'.
    Instances are immutable after construction and safe for concurrent use.
    """

    def __init__(self, kind: str, n: int, m: int, seed: int = 0,
                 storage: np.ndarray | None = None):
        self.kind = kind
        self.n = n
        self.m = m
        self.seed = seed
        self._storage = storage
        self._iu, self._scale = _svec_scale(n)
        self.dim = self._scale.size  # n(n+1)/2

    # -- svec coordinates ---------------------------------------------------

    def svec(self, mat: np.ndarray) -> np.ndarray:
        """svec of an n x n matrix, or the rows svec(M_j) of a k x n x n stack."""
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {mat.shape}")
        sym = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        return sym[..., self._iu[0], self._iu[1]] * self._scale

    def unsvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape[:-1] + (self.n, self.n))
        out[..., self._iu[0], self._iu[1]] = v / self._scale
        out = out + np.swapaxes(out, -1, -2)
        diag = np.arange(self.n)
        out[..., diag, diag] *= 0.5
        return out

    def row_svec(self, i: int) -> np.ndarray:
        """Row i of a Gaussian operator in svec coordinates (bit-exact contract)."""
        if self.kind == "identity":
            raise ValueError("row_svec applies to a Gaussian operator, not the identity")
        return rng.normals(self.seed, i, self.dim) * (1.0 / np.sqrt(self.m))

    # -- forward / adjoint -------------------------------------------------

    # Each pass also takes a stack: k matrices (k x n x n) go forward as the
    # rows of V = [svec(M_j)] to V S^T (k x m), and k residuals R (k x m) come
    # back as R S, so the k share one pass over the rows.  The same expression
    # serves a single matrix or vector; numpy sends it to gemv.

    def apply_forward(self, mat: np.ndarray) -> np.ndarray:
        v = self.svec(mat)
        if self.kind == "identity":
            return v
        return v @ self._storage.T

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != self.m:
            raise ValueError(f"expected length-{self.m} vector, got {y.shape}")
        if self.kind == "identity":
            return self.unsvec(y)
        return self.unsvec(y @ self._storage)

    def residual_grad(self, x: np.ndarray, y: np.ndarray):
        """(f, A*(A(X X^T) - y)) for f = 1/4 ||A(X X^T) - y||^2 at the n x r
        factor X; the matrix times X is the gradient of f.  One forward and
        one adjoint pass.  A k x n x r stack of factors gives the k losses as
        an array and the k matrices as a k x n x n stack, from one stacked
        pass each way; a single factor goes as a stack of one."""
        if x.ndim == 2:
            f, w = self.residual_grad(x[None], y)
            return float(f[0]), w[0]
        resid = self.apply_forward(x @ np.swapaxes(x, 1, 2)) - y
        return 0.25 * np.array([row @ row for row in resid]), self.apply_adjoint(resid)


def gaussian_operator(n: int, m: int, seed: int) -> SensingOperator:
    """Dense Gaussian operator whose row i is bit for bit `row_svec(i)`.

    The rows are drawn in blocks whose uniforms take about 256 KB, each block
    by one Box-Muller over its streams, written straight into the storage.
    The blocks are shared out over min(usable CPUs, 8, blocks) threads, the
    calling thread included; each thread builds one Philox generator and
    re-keys it for every row it draws.  The Philox fills and the large ufunc
    loops release the GIL.  An exception in any thread is raised here once all
    have stopped.  No setting changes this, and no row depends on the
    thread count.  An operator past MEMORY_CAP_BYTES is refused before any
    allocation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    dim = n * (n + 1) // 2
    nbytes = 8 * m * dim
    if nbytes > MEMORY_CAP_BYTES:
        raise MemoryCapError(
            f"dense Gaussian operator needs {nbytes / 2**30:.2f} GiB "
            f"(cap {MEMORY_CAP_BYTES / 2**30:.2f} GiB)")
    op = SensingOperator("gaussian_dense", n, m, seed, np.empty((m, dim)))
    scale = 1.0 / np.sqrt(m)
    rows = max(1, _BLOCK_BYTES // (16 * ((dim + 1) // 2)))
    blocks = range(0, m, rows)
    starts = iter(blocks)  # shared; each next() hands a block to one worker
    errors = []

    def fill():
        try:
            gen = rng.uniform_stream(seed)  # re-keyed to each row's stream
            for start in starts:
                stop = min(start + rows, m)
                block = rng.normals_block(seed, range(start, stop), dim, gen)
                np.multiply(block, scale, out=op._storage[start:stop])
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, _BUILD_THREADS_CAP, len(blocks))
    helpers = [threading.Thread(target=fill) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    fill()  # the calling thread is one of the workers
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return op


def identity_operator(n: int) -> SensingOperator:
    """Exact isometry: forward is scaled svec, A*A is the identity."""
    return SensingOperator("identity", n, n * (n + 1) // 2)


@dataclass(frozen=True)
class Measurements:
    y: np.ndarray


def measure(op: SensingOperator, truth, noise: NoiseModel | None = None) -> Measurements:
    """y = A(M*) + xi with xi i.i.d. N(0, sigma^2); sigma = 0 is bit-exact noiseless."""
    if noise is None:
        noise = NoiseModel()
    y = op.apply_forward(dense_m_star(truth))
    if noise.sigma > 0:
        y = y + noise.draw(op.m)
    return Measurements(y=y)


@dataclass(frozen=True)
class RipEstimate:
    """Sampled lower bound on the rank-r restricted isometry constant.

    delta_hat = max(1 - min_ratio, max_ratio - 1) over sampled ratios
    ||A(M)||^2 / ||M||_F^2; the true constant can only be larger, so this
    is a sanity probe, not a certificate.
    """

    delta_hat: float
    min_ratio: float
    max_ratio: float


def estimate_rip_constant(op: SensingOperator, rank: int, trials: int,
                          seed: int) -> RipEstimate:
    """Trial t draws its matrix from stream (seed, t).  The trials go forward
    in chunks of _RIP_CHUNK, one stacked pass a chunk, so memory does not
    grow with `trials`."""
    if not 1 <= rank <= op.n:
        raise ValueError(f"rank must be between 1 and n = {op.n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = op.n
    min_ratio = np.inf
    max_ratio = -np.inf
    for first in range(0, trials, _RIP_CHUNK):  # one stacked pass per chunk
        mats = []
        for t in range(first, min(first + _RIP_CHUNK, trials)):
            gen = rng.uniform_stream(seed, t)
            g = rng.normals_from(gen, n * rank).reshape(n, rank)
            q, _ = np.linalg.qr(g)
            mags = gen.random(rank) + _RIP_EIGS_PAD
            signs = np.where(gen.random(rank) < 0.5, -1.0, 1.0)
            lam = signs * mags
            lam /= np.linalg.norm(lam)
            mats.append((q * lam) @ q.T)
        mats = np.stack(mats)
        # ||A(M)||^2 / ||svec(M)||^2, and ||svec(M)||^2 is ||M||_F^2
        ratios = [float(ym @ ym) / float(v @ v)
                  for ym, v in zip(op.apply_forward(mats), op.svec(mats))]
        min_ratio = min(min_ratio, *ratios)
        max_ratio = max(max_ratio, *ratios)
    delta_hat = max(1.0 - min_ratio, max_ratio - 1.0, 0.0)
    return RipEstimate(delta_hat=delta_hat, min_ratio=min_ratio, max_ratio=max_ratio)
