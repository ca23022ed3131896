"""Planted problem instances: exactly low-rank, approximately low-rank, noisy.

The ground truth is a PSD matrix M* = X* X*^T with X* = U* diag(sigma*),
U* a uniformly random orthonormal frame and sigma* a prescribed spectrum
with condition number kappa.  The spectrum is normalized so that
||X*|| = ||M*|| = 1, making relative errors comparable across kappa.  An
approximately low-rank truth adds a geometric PSD tail on the complement
of U*, which a truth computes once and caches as `u_perp`.  Measurement
noise is drawn by `sensing.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .linalg import orthonormal_complement

_FRAME_STREAM = 0


@dataclass(frozen=True)
class GroundTruth:
    """M* = F diag(scales)^2 F^T: an orthonormal n x k frame F and
    non-increasing scales.  Its first r_star columns and scales are the
    planted factor X* = u_star * diag(sigma_star); an exactly low-rank truth
    has k = r_star, an approximately low-rank one a tail after them."""

    r_star: int
    frame: np.ndarray     # n x k, orthonormal columns
    scales: np.ndarray    # length k, non-increasing; sigma_star positive

    @property
    def u_star(self) -> np.ndarray:
        return self.frame[:, :self.r_star]

    @cached_property
    def u_perp(self) -> np.ndarray:
        """n x (n - r_star) orthonormal complement of u_star, computed once."""
        return orthonormal_complement(self.u_star)

    @property
    def sigma_star(self) -> np.ndarray:
        return self.scales[:self.r_star]

    @property
    def x_star(self) -> np.ndarray:
        return self.u_star * self.sigma_star

    def spectral_norm_m(self) -> float:
        """||M*|| = scales[0]^2."""
        return float(self.scales[0] ** 2)


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
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    g = rng.normals(seed, _FRAME_STREAM, n * r_star).reshape(n, r_star)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    u_star = q * signs
    sigma_star = np.linspace(1.0, 1.0 / float(kappa), r_star)
    return GroundTruth(r_star=r_star, frame=u_star, scales=sigma_star)


def dense_m_star(truth: GroundTruth) -> np.ndarray:
    """Dense M* (symmetric by construction)."""
    m = (truth.frame * truth.scales**2) @ truth.frame.T
    return 0.5 * (m + m.T)


def make_approx_truth(n: int, r_star: int, kappa: float, tail_decay: float,
                      seed: int) -> GroundTruth:
    """make_ground_truth's instance plus a geometric PSD tail on the
    complement of u_star: frame [u_star | u_perp].

    Tail eigenvalues are sigma_star[-1]^2 * tail_decay^j for j = 1..n-r_star,
    so the best rank-r_star approximation of the full matrix is exactly the
    planted part and the tail spectral norm is sigma_star[-1]^2 * tail_decay.
    """
    if not 0.0 < tail_decay < 1.0:
        raise ValueError("tail_decay must lie in (0, 1)")
    base = make_ground_truth(n, r_star, kappa, seed)
    j = np.arange(1, n - r_star + 1, dtype=float)
    tail = base.sigma_star[-1] * np.sqrt(tail_decay**j)
    return GroundTruth(r_star=r_star,
                       frame=np.hstack([base.u_star, base.u_perp]),
                       scales=np.concatenate([base.sigma_star, tail]))
