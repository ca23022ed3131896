"""Measurable diagnostics for the iterate trajectory.

An n x r iterate X splits, relative to the planted subspace U*, into three
blocks:

    X = U* S~ V^T  +  U*perp N~ V^T  +  U*perp O~ Vperp^T

where S = U*^T X has the SVD U Sigma [V | Vperp]^T, so one SVD gives V, Vperp,
U and Sigma: S~ = S V = U Sigma (signal), N~ = (U*perp^T X) V (misalignment) and
O~ = (U*perp^T X) Vperp (surplus-rank component).  U*perp is the truth's cached
`u_perp`.  The scalar metrics derived from the blocks track the run's phase.
The singular vectors' signs are the SVD's: neither the metrics nor the
reassembled X depend on them.  Each function also takes a stack of iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import GroundTruth


@dataclass(frozen=True)
class IterateDecomposition:
    s_tilde: np.ndarray   # r* x r*, S V
    n_tilde: np.ndarray   # (n - r*) x r*
    o_tilde: np.ndarray   # (n - r*) x (r - r*)
    v: np.ndarray         # r x r*
    v_perp: np.ndarray    # r x (r - r*)
    u: np.ndarray         # r* x r*, S's left singular vectors
    sv: np.ndarray        # r*, Sigma's diagonal, non-increasing
    truth: GroundTruth

    def reconstruct(self) -> np.ndarray:
        u_star, u_perp = self.truth.u_star, self.truth.u_perp
        x = u_star @ self.s_tilde @ _t(self.v)
        x = x + u_perp @ self.n_tilde @ _t(self.v)
        return x + u_perp @ self.o_tilde @ _t(self.v_perp)


@dataclass(frozen=True)
class PhaseMetrics:
    sigma_min_scaled: float   # sigma_min((Sigma*^2 + lam I)^{-1/2} S~)
    misalign: float           # ||N~ S~^{-1} Sigma*||, inf when S~ singular
    gamma_norm: float         # ||Sigma*^{-1}(S~ S~^T - Sigma*^2) Sigma*^{-1}||
    overparam_norm: float     # ||O~||


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def decompose_iterate(x: np.ndarray, gt: GroundTruth) -> IterateDecomposition:
    """Split an iterate into signal / misalignment / overparameterization blocks."""
    s, n_blk = gt.u_star.T @ x, gt.u_perp.T @ x  # r* x r, (n - r*) x r
    u, sv, vt = np.linalg.svd(s)
    v, v_perp = _t(vt[..., :gt.r_star, :]), _t(vt[..., gt.r_star:, :])
    return IterateDecomposition(
        s_tilde=s @ v, n_tilde=n_blk @ v, o_tilde=n_blk @ v_perp,
        v=v, v_perp=v_perp, u=u, sv=sv, truth=gt)


def phase_metrics(dec: IterateDecomposition, lam: float) -> PhaseMetrics | list[PhaseMetrics]:
    """The PhaseMetrics of a decomposition against its truth, or a list of
    them for a stacked one.  N~ S~^{-1} is (N~ Sigma^{-1}) U^T; a singular S~
    gets an infinite misalign, and its Sigma is swapped for ones so that the
    division stays finite.  A sigma_min^2 that underflows makes Gamma (and, at
    lam = 0, the scaled block) inf, and the metrics read inf or nan."""
    sigma = dec.truth.sigma_star
    s_tilde = dec.s_tilde
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = s_tilde / np.sqrt(sigma**2 + lam)[:, None]
        gamma = (s_tilde @ _t(s_tilde) - np.diag(sigma**2)) / sigma[:, None] / sigma[None, :]
    sigma_min_scaled = np.linalg.svd(scaled, compute_uv=False)[..., -1]

    singular = dec.sv[..., -1] <= dec.sv[..., 0] * np.finfo(float).eps * dec.sv.shape[-1]
    z = (dec.n_tilde / np.where(singular[..., None], 1.0, dec.sv)[..., None, :]) @ _t(dec.u)
    misalign = np.where(singular, np.inf, np.linalg.norm(z * sigma, 2, axis=(-2, -1)))

    gamma_norm = np.linalg.norm(gamma, 2, axis=(-2, -1))
    overparam_norm = (np.linalg.norm(dec.o_tilde, 2, axis=(-2, -1)) if dec.o_tilde.size
                      else np.zeros(s_tilde.shape[:-2]))
    cols = (sigma_min_scaled, misalign, gamma_norm, overparam_norm)
    rows = [PhaseMetrics(*row) for row in zip(*(np.ravel(col).tolist() for col in cols))]
    return rows[0] if s_tilde.ndim == 2 else rows


def rel_err_op(x: np.ndarray, truth: GroundTruth) -> float | np.ndarray:
    """||X X^T - M*|| / ||M*||, or the array of them for a stack of iterates.

    X X^T - M* lives in span[F, X], F the truth's k-column frame.  The R
    factor of [F, X] gives it as Q (C C^T - D D^T) Q^T with C = Q^T X and
    D = Q^T F diag(scales), the columns of R, so the spectral norm is the
    largest |eigenvalue| of a matrix of size at most k + r (r* + r for an
    exactly low-rank truth)."""
    k = truth.scales.size
    frame = np.broadcast_to(truth.frame, x.shape[:-1] + (k,))
    tri = np.linalg.qr(np.concatenate([frame, x], axis=-1), mode="r")
    c = tri[..., k:]
    d = tri[..., :k] * truth.scales
    resid = c @ _t(c) - d @ _t(d)
    err = np.abs(np.linalg.eigvalsh(resid)).max(axis=-1) / truth.spectral_norm_m()
    return float(err) if x.ndim == 2 else err
