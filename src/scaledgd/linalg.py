"""Shared dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np

DENSE_EIG_CUTOFF = 64


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


def spectral_norm(a: np.ndarray, tol: float = 1e-10, max_iters: int = 1000):
    """Spectral norm of a symmetric matrix.

    Dense eigensolve for n <= DENSE_EIG_CUTOFF, otherwise power iteration
    with a deterministic start (normalized all-ones), stopped once the
    estimate changes by at most tol relative to itself.  Returns (value, iterations).
    """
    n = a.shape[0]
    if n == 0:
        return 0.0, 0
    if n <= DENSE_EIG_CUTOFF:
        return float(np.abs(np.linalg.eigvalsh(a)).max()), 0
    v = np.full(n, 1.0 / np.sqrt(n))
    est = 0.0
    for it in range(1, max_iters + 1):
        w = a @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0, it
        new_est = norm_w
        v = w / norm_w
        if abs(new_est - est) <= tol * new_est:
            return new_est, it
        est = new_est
    return est, max_iters


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
