"""Shared dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np


def orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of the column span of `u`.

    `u` must be n x k with orthonormal columns.  Returns n x (n - k) such
    that [u | result] is orthonormal.  Deterministic given `u`: full
    Householder QR of [u | I] and the trailing n - k columns of Q.
    """
    n, k = u.shape
    gram_err = np.abs(u.T @ u - np.eye(k)).max() if k else 0.0
    if gram_err > 1e-10:
        raise ValueError("input columns are not orthonormal (or rank deficient)")
    if k == n:
        return np.empty((n, 0))
    q, _ = np.linalg.qr(np.hstack([u, np.eye(n)]), mode="complete")
    comp = q[:, k:n]
    # project out residual leakage onto span(u) from rounding
    comp = comp - u @ (u.T @ comp)
    comp, _ = np.linalg.qr(comp)
    return comp


def spectral_norm(a: np.ndarray):
    """Spectral norm of a symmetric matrix, from a dense eigensolve.
    Returns (value, iterations); iterations is always 0."""
    if a.shape[0] == 0:
        return 0.0, 0
    return float(np.abs(np.linalg.eigvalsh(a)).max()), 0


def fix_sv_signs(u: np.ndarray, vt: np.ndarray):
    """Fix SVD sign ambiguity: largest-|entry| of each right-singular vector
    is made positive (first occurrence on ties); u columns flip to match."""
    u = u.copy()
    vt = vt.copy()
    for j in range(vt.shape[0]):
        row = vt[j]
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            vt[j] = -row
            u[:, j] = -u[:, j]
    return u, vt
