"""Shared dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np


def orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of the column span of `u`.

    `u` must be n x k with orthonormal columns, or a stack of such frames.
    Returns n x (n - k), stacked as `u`, such that [u | result] is orthonormal.
    Deterministic given `u`: the last n - k columns of Q in a full QR of [u | I].
    """
    *lead, n, k = u.shape
    gram_err = np.abs(np.swapaxes(u, -1, -2) @ u - np.eye(k)).max() if k else 0.0
    if gram_err > 1e-10:
        raise ValueError("input columns are not orthonormal (or rank deficient)")
    eye = np.broadcast_to(np.eye(n), (*lead, n, n))
    q, _ = np.linalg.qr(np.concatenate([u, eye], axis=-1), mode="complete")
    comp = q[..., k:n]
    # project out residual leakage onto span(u) from rounding
    comp = comp - u @ (np.swapaxes(u, -1, -2) @ comp)
    comp, _ = np.linalg.qr(comp)
    return comp


def spectral_norm(a: np.ndarray):
    """Spectral norm of a symmetric matrix, from a dense eigensolve.
    Returns (value, iterations); iterations is always 0."""
    if a.shape[0] == 0:
        return 0.0, 0
    return float(np.abs(np.linalg.eigvalsh(a)).max()), 0

