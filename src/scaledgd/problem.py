"""Planted problem instances: exactly low-rank, approximately low-rank, noisy.

The ground truth is a PSD matrix M* = X* X*^T with X* = U* diag(sigma*),
U* a uniformly random orthonormal frame and sigma* a prescribed spectrum
with condition number kappa.  The spectrum is normalized so that
||X*|| = ||M*|| = 1, making relative errors comparable across kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .linalg import orthonormal_complement

_FRAME_STREAM = 0
_NOISE_STREAM = 0


@dataclass(frozen=True)
class GroundTruth:
    """Planted rank-r_star factor X* = u_star * diag(sigma_star)."""

    n: int
    r_star: int
    u_star: np.ndarray        # n x r_star, orthonormal columns
    sigma_star: np.ndarray    # length r_star, non-increasing, positive
    seed: int

    @property
    def x_star(self) -> np.ndarray:
        return self.u_star * self.sigma_star

    def spectral_norm_m(self) -> float:
        """||M*|| = sigma_star[0]^2."""
        return float(self.sigma_star[0] ** 2)


@dataclass(frozen=True)
class ApproxTruth:
    """Approximately low-rank ground truth: best rank-r_star part plus a
    PSD tail supported on the orthogonal complement of u_star."""

    base: GroundTruth
    tail_spectrum: np.ndarray  # length n - r_star, non-negative, non-increasing
    tail_basis: np.ndarray     # n x (n - r_star), orthonormal completion of u_star

    @property
    def n(self) -> int:
        return self.base.n

    def tail_spectral_norm(self) -> float:
        return float(self.tail_spectrum[0]) if self.tail_spectrum.size else 0.0

    def spectral_norm_m(self) -> float:
        """||M*||: base and tail live on orthogonal subspaces, so the max."""
        return max(self.base.spectral_norm_m(), self.tail_spectral_norm())


@dataclass(frozen=True)
class NoiseModel:
    """i.i.d. Gaussian measurement noise, N(0, sigma^2) per measurement."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("noise sigma must be >= 0")

    def draw(self, m: int) -> np.ndarray:
        if self.sigma == 0.0:
            return np.zeros(m)
        return self.sigma * rng.normals(self.seed, _NOISE_STREAM, m)


def make_ground_truth(n: int, r_star: int, kappa: float, seed: int) -> GroundTruth:
    """Draw a planted instance with condition number exactly `kappa`.

    u_star is the Q factor of an i.i.d. Gaussian n x r_star matrix with
    signs fixed so R has positive diagonal; sigma_star runs from 1 down to
    1/kappa.  A rank-1 factor always has condition number 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= r_star <= n:
        raise ValueError("require 1 <= r_star <= n")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    g = rng.normals(seed, _FRAME_STREAM, n * r_star).reshape(n, r_star)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    u_star = q * signs
    sigma_star = np.linspace(1.0, 1.0 / float(kappa), r_star)
    return GroundTruth(n=n, r_star=r_star, u_star=u_star,
                       sigma_star=sigma_star, seed=seed)


def dense_m_star(truth) -> np.ndarray:
    """Dense M* for a GroundTruth or ApproxTruth (symmetric by construction)."""
    if isinstance(truth, ApproxTruth):
        gt = truth.base
        m = (gt.u_star * gt.sigma_star**2) @ gt.u_star.T
        m = m + (truth.tail_basis * truth.tail_spectrum) @ truth.tail_basis.T
    else:
        m = (truth.u_star * truth.sigma_star**2) @ truth.u_star.T
    return 0.5 * (m + m.T)


def make_approx_truth(n: int, r_star: int, kappa: float, tail_decay: float,
                      seed: int) -> ApproxTruth:
    """Planted instance plus a geometric PSD tail.

    Tail eigenvalues are sigma_star[-1]^2 * tail_decay^k for k = 1..n-r_star,
    so the best rank-r_star approximation of the full matrix is exactly the
    base part and the tail spectral norm is sigma_star[-1]^2 * tail_decay.
    """
    if not 0.0 < tail_decay < 1.0:
        raise ValueError("tail_decay must lie in (0, 1)")
    base = make_ground_truth(n, r_star, kappa, seed)
    sig_min_sq = float(base.sigma_star[-1] ** 2)
    k = np.arange(1, n - r_star + 1, dtype=float)
    tail_spectrum = sig_min_sq * tail_decay**k
    tail_basis = orthonormal_complement(base.u_star)
    return ApproxTruth(base=base, tail_spectrum=tail_spectrum, tail_basis=tail_basis)
