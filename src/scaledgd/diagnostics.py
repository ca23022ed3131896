"""Measurable diagnostics for the iterate trajectory.

An n x r iterate X splits, relative to the planted subspace U*, into three
blocks:

    X = U* S~ V^T  +  U*perp N~ V^T  +  U*perp O~ Vperp^T

where S = U*^T X has thin SVD U Sigma V^T, S~ = S V (signal), N~ = (U*perp^T X) V
(misalignment) and O~ = (U*perp^T X) Vperp (surplus-rank component).  The scalar
metrics derived from the blocks track which phase of the run the iterate is in.
V's column signs are whatever the SVD returns: neither the metrics nor the
reassembled X depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import orthonormal_complement, spectral_norm
from .problem import ApproxTruth, GroundTruth, dense_m_star


@dataclass(frozen=True)
class IterateDecomposition:
    s_tilde: np.ndarray   # r* x r*
    n_tilde: np.ndarray   # (n - r*) x r*
    o_tilde: np.ndarray   # (n - r*) x (r - r*)
    v: np.ndarray         # r x r*
    v_perp: np.ndarray    # r x (r - r*)
    u_star: np.ndarray
    u_perp: np.ndarray

    def reconstruct(self) -> np.ndarray:
        x = self.u_star @ self.s_tilde @ self.v.T
        x = x + self.u_perp @ self.n_tilde @ self.v.T
        if self.o_tilde.shape[1]:
            x = x + self.u_perp @ self.o_tilde @ self.v_perp.T
        return x


@dataclass(frozen=True)
class PhaseMetrics:
    sigma_min_scaled: float   # sigma_min((Sigma*^2 + lam I)^{-1/2} S~)
    misalign: float           # ||N~ S~^{-1} Sigma*||, inf when S~ singular
    gamma_norm: float         # ||Sigma*^{-1}(S~ S~^T - Sigma*^2) Sigma*^{-1}||
    overparam_norm: float     # ||O~||


def decompose_iterate(x: np.ndarray, gt: GroundTruth, *,
                      u_perp: np.ndarray | None = None) -> IterateDecomposition:
    """Split an iterate into signal / misalignment / overparameterization blocks.

    u_perp, when given, must be orthonormal_complement(gt.u_star); a caller
    that decomposes many iterates of one truth computes it once.
    """
    n, r = x.shape
    r_star = gt.r_star
    u_star = gt.u_star
    if u_perp is None:
        u_perp = orthonormal_complement(u_star)
    s = u_star.T @ x                       # r* x r
    n_blk = u_perp.T @ x                   # (n - r*) x r
    v = np.linalg.svd(s, full_matrices=False)[2].T  # r x r*
    v_perp = orthonormal_complement(v) if r > r_star else np.empty((r, 0))
    return IterateDecomposition(
        s_tilde=s @ v, n_tilde=n_blk @ v,
        o_tilde=n_blk @ v_perp if r > r_star else np.empty((n - r_star, 0)),
        v=v, v_perp=v_perp, u_star=u_star, u_perp=u_perp)


def phase_metrics(dec: IterateDecomposition, gt: GroundTruth,
                  lam: float) -> PhaseMetrics:
    sigma = gt.sigma_star
    s_tilde = dec.s_tilde
    scaled = (s_tilde.T / np.sqrt(sigma**2 + lam)).T
    sigma_min_scaled = float(np.linalg.svd(scaled, compute_uv=False)[-1])

    sv = np.linalg.svd(s_tilde, compute_uv=False)
    if sv[-1] <= sv[0] * np.finfo(float).eps * max(s_tilde.shape) or sv[-1] == 0.0:
        misalign = np.inf
    else:
        z = np.linalg.solve(s_tilde.T, dec.n_tilde.T).T  # N~ S~^{-1}
        misalign = float(np.linalg.norm(z * sigma, 2))

    gram_err = (s_tilde @ s_tilde.T - np.diag(sigma**2))
    gamma = gram_err / sigma[:, None] / sigma[None, :]
    gamma_norm = float(np.linalg.norm(gamma, 2))
    overparam_norm = float(np.linalg.norm(dec.o_tilde, 2)) if dec.o_tilde.size else 0.0
    return PhaseMetrics(sigma_min_scaled=sigma_min_scaled, misalign=misalign,
                        gamma_norm=gamma_norm, overparam_norm=overparam_norm)


def rel_err_op(x: np.ndarray, truth) -> float:
    """||X X^T - M*|| / ||M*||.

    For a GroundTruth, X X^T - M* lives in span[U*, X].  The QR factors of
    [U*, X] give it as Q (C C^T - D D^T) Q^T with C = Q^T X and
    D = Q^T U* diag(sigma*), the columns of R, so the spectral norm is the
    largest |eigenvalue| of an (r* + r)-sized matrix.  An ApproxTruth has a
    full-rank tail and takes the dense n x n path."""
    norm_m = truth.spectral_norm_m()
    if isinstance(truth, ApproxTruth):
        return spectral_norm(x @ x.T - dense_m_star(truth))[0] / norm_m
    _, tri = np.linalg.qr(np.hstack([truth.u_star, x]))
    c = tri[:, truth.r_star:]
    d = tri[:, :truth.r_star] * truth.sigma_star
    return float(np.abs(np.linalg.eigvalsh(c @ c.T - d @ d.T)).max()) / norm_m
