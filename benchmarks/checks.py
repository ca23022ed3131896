"""The benchmark's correctness checks.

Each check returns None when the result is right and a one-line reason when
it is not.  They are computed here, with numpy, from the package's outputs
and the planted truth; none compares against a stored copy of an earlier
output.  Sweep rows are read through their attributes (`algorithm`,
`iters_to_target`, `stop_reason`, `final_rel_err_fro`), so tests can feed
synthetic rows.
"""

from __future__ import annotations

import numpy as np

TARGET = 1e-9           # relative Frobenius error every workload solves to
GD_SLOWDOWN = 5         # GD must miss, or need this many times ScaledGD(lambda)'s iterations
KAPPA_SPREAD = 3.0      # max/min ScaledGD(lambda) iterations over kappa
REASSEMBLY_TOL = 1e-10  # max |X - reconstruct(decompose(X))|


def recomputed_error(x: np.ndarray, u_star: np.ndarray, sigma_star: np.ndarray) -> float:
    """||X X^T - M*||_F / ||M*||_2 with M* = U* diag(sigma*^2) U*^T."""
    m_star = (u_star * sigma_star**2) @ u_star.T
    return float(np.linalg.norm(x @ x.T - m_star) / np.linalg.norm(m_star, 2))


def check_run(stop_reason: str, x, u_star, sigma_star) -> str | None:
    """A single trajectory stops at the target and its final factor is within it."""
    if stop_reason != "target_reached":
        return f"stopped at {stop_reason}, not target_reached"
    err = recomputed_error(x, u_star, sigma_star)
    if not err <= TARGET:
        return f"recomputed relative error {err:.3e} > {TARGET:.0e}"
    return None


def check_row_reached(row) -> str | None:
    """A sweep row reached the target."""
    if row.stop_reason != "target_reached" or row.iters_to_target < 0:
        return f"{row.algorithm} stopped at {row.stop_reason}, not target_reached"
    if not row.final_rel_err_fro <= TARGET:
        return f"{row.algorithm} final error {row.final_rel_err_fro:.3e} > {TARGET:.0e}"
    return None


def check_gd_row(gd_row, scaled_row) -> str | None:
    """GD at its selected step size misses the target within its cap, or needs
    at least GD_SLOWDOWN times ScaledGD(lambda)'s iterations."""
    if gd_row.stop_reason == "diverged":
        return "gd diverged at its selected step size"
    if gd_row.stop_reason != "target_reached":
        return None
    if gd_row.iters_to_target < GD_SLOWDOWN * scaled_row.iters_to_target:
        return (f"gd reached the target in {gd_row.iters_to_target} iterations, "
                f"under {GD_SLOWDOWN}x scaled_gd_lambda's {scaled_row.iters_to_target}")
    return None


def check_prec_slower(prec_row, scaled_row) -> str | None:
    """PrecGD at r = 20 needs more iterations than ScaledGD(lambda)."""
    problem = check_row_reached(prec_row)
    if problem is not None:
        return problem
    if prec_row.iters_to_target <= scaled_row.iters_to_target:
        return (f"prec_gd needed {prec_row.iters_to_target} iterations, no more than "
                f"scaled_gd_lambda's {scaled_row.iters_to_target}")
    return None


def check_kappa_spread(iters) -> str | None:
    """ScaledGD(lambda)'s iteration count is nearly flat in kappa."""
    spread = max(iters) / min(iters)
    if not spread <= KAPPA_SPREAD:
        return f"iteration spread over kappa {spread:.2f} > {KAPPA_SPREAD}"
    return None


def check_reassembly(x: np.ndarray, rebuilt: np.ndarray) -> str | None:
    """The block decomposition of an iterate reassembles it."""
    gap = float(np.abs(x - rebuilt).max())
    if not gap <= REASSEMBLY_TOL:
        return f"decomposition reassembles X only within {gap:.3e} > {REASSEMBLY_TOL:.0e}"
    return None
