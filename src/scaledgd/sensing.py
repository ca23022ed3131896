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

from the package's documented Philox/Box-Muller stream (see rng.py).  Both
backends take their rows from `SensingOperator.row_svec`, so they are
bit-identical: the dense backend materializes the m x n(n+1)/2 array; the
streamed backend regenerates rows on demand in fixed-size chunks, which
keeps the accumulation order independent of how the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .problem import NoiseModel, dense_m_star

DEFAULT_MEMORY_CAP_BYTES = 2 << 30  # 2 GiB
_STREAM_CHUNK = 256
_RIP_EIGS_PAD = 1e-300  # keep trial eigenvalues away from exact zero


class MemoryCapError(MemoryError):
    pass


def _svec_scale(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return iu, scale


class SensingOperator:
    """Linear map from symmetric n x n matrices to R^m.

    kind is one of 'gaussian_dense', 'gaussian_streamed', 'identity'.
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
        if mat.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {mat.shape}")
        sym = 0.5 * (mat + mat.T)
        return sym[self._iu] * self._scale

    def unsvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self._iu] = v / self._scale
        out = out + out.T
        out[np.diag_indices(self.n)] *= 0.5
        return out

    def row_svec(self, i: int) -> np.ndarray:
        """Row i of a Gaussian operator in svec coordinates (bit-exact contract)."""
        return rng.normals(self.seed, i, self.dim) * (1.0 / np.sqrt(self.m))

    def _chunks(self):
        """(first row index, rows) over the operator's rows in index order: the
        dense array is one chunk; the streamed backend regenerates
        _STREAM_CHUNK rows at a time."""
        if self.kind == "gaussian_dense":
            yield 0, self._storage
            return
        for lo in range(0, self.m, _STREAM_CHUNK):
            yield lo, np.stack([self.row_svec(i)
                                for i in range(lo, min(lo + _STREAM_CHUNK, self.m))])

    def sensing_matrix(self, i: int) -> np.ndarray:
        """A_i as a dense symmetric matrix."""
        if self.kind == "identity":
            e = np.zeros(self.m)
            e[i] = 1.0
            return self.unsvec(e)
        if self.kind == "gaussian_dense":
            return self.unsvec(self._storage[i])
        return self.unsvec(self.row_svec(i))

    # -- forward / adjoint / normal ------------------------------------------

    def apply_forward(self, mat: np.ndarray) -> np.ndarray:
        v = self.svec(mat)
        if self.kind == "identity":
            return v
        y = np.empty(self.m)
        for lo, rows in self._chunks():
            y[lo:lo + len(rows)] = rows @ v
        return y

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"expected length-{self.m} vector, got {y.shape}")
        if self.kind == "identity":
            return self.unsvec(y)
        acc = np.zeros(self.dim)
        for lo, rows in self._chunks():
            acc += rows.T @ y[lo:lo + len(rows)]
        return self.unsvec(acc)

    def residual_grad(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(f, A*(A(X X^T) - y)) for f = 1/4 ||A(X X^T) - y||^2 at the n x r
        factor X; the matrix times X is the gradient of f.  One forward and
        one adjoint pass."""
        resid = self.apply_forward(x @ x.T) - y
        return 0.25 * float(resid @ resid), self.apply_adjoint(resid)

    def apply_normal(self, mat: np.ndarray) -> np.ndarray:
        """A*A(mat); one fused pass per row chunk."""
        v = self.svec(mat)
        if self.kind == "identity":
            return self.unsvec(v)
        acc = np.zeros(self.dim)
        for _, rows in self._chunks():
            acc += rows.T @ (rows @ v)
        return self.unsvec(acc)


def gaussian_operator(n: int, m: int, seed: int, backend: str = "dense",
                      memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> SensingOperator:
    if m < 1:
        raise ValueError("m must be >= 1")
    dim = n * (n + 1) // 2
    if backend == "dense":
        nbytes = 8 * m * dim
        if nbytes > memory_cap_bytes:
            raise MemoryCapError(
                f"dense Gaussian operator needs {nbytes / 2**30:.2f} GiB "
                f"(cap {memory_cap_bytes / 2**30:.2f} GiB); use backend='streamed'")
        op = SensingOperator("gaussian_dense", n, m, seed, np.empty((m, dim)))
        for i in range(m):  # row by row: a stack of rows would double peak memory
            op._storage[i] = op.row_svec(i)
        return op
    if backend == "streamed":
        return SensingOperator("gaussian_streamed", n, m, seed)
    raise ValueError(f"unknown backend {backend!r}")


def identity_operator(n: int) -> SensingOperator:
    """Exact isometry: forward is scaled svec, A*A is the identity."""
    return SensingOperator("identity", n, n * (n + 1) // 2)


@dataclass(frozen=True)
class Measurements:
    y: np.ndarray
    sigma: float
    seed_noise: int


def measure(op: SensingOperator, truth, noise: NoiseModel | None = None) -> Measurements:
    """y = A(M*) + xi with xi i.i.d. N(0, sigma^2); sigma = 0 is bit-exact noiseless."""
    if noise is None:
        noise = NoiseModel()
    y = op.apply_forward(dense_m_star(truth))
    if noise.sigma > 0:
        y = y + noise.draw(op.m)
    return Measurements(y=y, sigma=noise.sigma, seed_noise=noise.seed)


@dataclass(frozen=True)
class RipEstimate:
    """Sampled lower bound on the rank-r restricted isometry constant.

    delta_hat = max(1 - min_ratio, max_ratio - 1) over sampled ratios
    ||A(M)||^2 / ||M||_F^2; the true constant can only be larger, so this
    is a sanity probe, not a certificate.
    """

    rank: int
    trials: int
    delta_hat: float
    min_ratio: float
    max_ratio: float


def estimate_rip_constant(op: SensingOperator, rank: int, trials: int,
                          seed: int) -> RipEstimate:
    if not 1 <= rank <= op.n:
        raise ValueError(f"rank must be between 1 and n = {op.n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = op.n
    min_ratio = np.inf
    max_ratio = -np.inf
    for t in range(trials):
        gen = rng.uniform_stream(seed, t)
        g = rng.normals_from(gen, n * rank).reshape(n, rank)
        q, _ = np.linalg.qr(g)
        mags = gen.random(rank) + _RIP_EIGS_PAD
        signs = np.where(gen.random(rank) < 0.5, -1.0, 1.0)
        lam = signs * mags
        lam /= np.linalg.norm(lam)
        mat = (q * lam) @ q.T
        v = op.svec(mat)
        ym = op.apply_forward(mat)
        ratio = float(ym @ ym) / float(v @ v)  # v @ v is ||M||_F^2
        min_ratio = min(min_ratio, ratio)
        max_ratio = max(max_ratio, ratio)
    delta_hat = max(1.0 - min_ratio, max_ratio - 1.0, 0.0)
    return RipEstimate(rank=rank, trials=trials, delta_hat=delta_hat,
                       min_ratio=min_ratio, max_ratio=max_ratio)
