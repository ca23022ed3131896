"""Iterative solvers for factorized low-rank matrix sensing.

All four algorithms minimize f(X) = 1/4 ||A(X X^T) - y||^2 over n x r
factors and differ only in the right preconditioner applied to the
gradient:

    gd:                X' = X - eta * G
    scaled_gd:         X' = X - eta * G (X^T X)^{-1}
    scaled_gd_lambda:  X' = X - eta * G (X^T X + lambda I)^{-1}, fixed lambda
    prec_gd:           X' = X - eta * G (X^T X + sqrt(f(X)) I)^{-1}

where G = A*(A(X X^T) - y) X.  The noiseless case is just the sigma = 0
special case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .diagnostics import decompose_iterate, phase_metrics, rel_err_op
from .linalg import orthonormal_complement
from .problem import GroundTruth, dense_m_star
from .sensing import SensingOperator

ALGORITHMS = ("scaled_gd_lambda", "gd", "scaled_gd", "prec_gd")

_INIT_STREAM = 0
DIVERGENCE_FACTOR = 1e6
# estimate_damping's c_frac, in the sweeps and in `scaledgd run`.  The damping
# theory tolerates underestimating sigma_min^2 by 100x but not overestimating
# it, and the rank_guess-th eigenvalue of A*(y) sits on the sensing noise
# floor at m = 10 n r*.
DAMPING_FRAC = 0.05


class PreconditionerError(np.linalg.LinAlgError):
    """X^T X + lambda_t I is not positive definite.  Raised by run() with
    trajectory, the run up to the failed step (stop reason
    "preconditioner_singular")."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


class DivergenceError(RuntimeError):
    """The loss blew up.  trajectory is the run up to it: stop reason
    "diverged", the TrajectoryRecords made before it, and final_state the
    iterate that blew up."""

    def __init__(self, trajectory: "Trajectory"):
        final = trajectory.final_state
        loss0 = trajectory.records[0].loss if trajectory.records else final.loss
        super().__init__(f"loss {final.loss:.3e} exceeded {DIVERGENCE_FACTOR:.0e} x "
                         f"initial loss {loss0:.3e} at iteration {final.t}")
        self.trajectory = trajectory


@dataclass(frozen=True)
class StoppingRule:
    """Stop on oracle relative error, on stalled loss, or both.

    target_rel_err: stop once ||X X^T - M*||_F / ||M*|| <= target (needs an
    oracle).  patience: stop once the loss has not improved by a relative
    improve_tol within `patience` iterations.
    """

    target_rel_err: float | None = None
    patience: int | None = None
    improve_tol: float = 1e-3

    def __post_init__(self):
        if self.target_rel_err is None and self.patience is None:
            raise ValueError("enable at least one stopping criterion")
        if self.target_rel_err is not None and self.target_rel_err <= 0:
            raise ValueError("target_rel_err must be > 0")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    r: int
    eta: float
    lam: float = 0.0
    alpha: float = 1e-9
    init: str = "small_random"        # small_random | spectral | explicit
    x0: np.ndarray | None = None      # used when init == "explicit"
    max_iters: int = 1000
    stop: StoppingRule = field(default_factory=lambda: StoppingRule(patience=100))
    seed_init: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.algorithm == "scaled_gd" and self.lam != 0.0:
            raise ValueError("scaled_gd is the lambda = 0 case; got lambda != 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.init == "explicit" and self.x0 is None:
            raise ValueError("init='explicit' requires x0")


@dataclass(frozen=True)
class IterateState:
    x: np.ndarray
    t: int
    loss: float
    elapsed_ns: int


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    loss: float
    rel_err_fro: float | None
    rel_err_op: float | None
    metrics: object | None = None   # PhaseMetrics when diagnostics are on
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    records: tuple
    # target_reached | patience | max_iters | diverged | preconditioner_singular
    # (see run_batch)
    stop_reason: str
    final_state: IterateState


# -- steps --------------------------------------------------------------------

def _solve_preconditioner(x: np.ndarray, grad: np.ndarray, lam: float) -> np.ndarray:
    """grad @ (x^T x + lam I)^{-1}: Cholesky factor L of the r x r system, then
    two solves, L z = grad^T and L^T w = z."""
    r = x.shape[1]
    system = x.T @ x + lam * np.eye(r)
    try:
        chol = np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise PreconditionerError("preconditioner singular; use lambda > 0") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, grad.T)).T


def step_gd(x: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    return x - eta * grad


def step_scaled_gd_lambda(x: np.ndarray, grad: np.ndarray, eta: float,
                          lam: float) -> np.ndarray:
    return x - eta * _solve_preconditioner(x, grad, lam)


def step_scaled_gd(x: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    return step_scaled_gd_lambda(x, grad, eta, 0.0)


def step_prec_gd(x: np.ndarray, grad: np.ndarray, eta: float,
                 current_loss: float) -> np.ndarray:
    if current_loss < 0:
        raise ValueError("loss must be >= 0")
    return x - eta * _solve_preconditioner(x, grad, np.sqrt(current_loss))


# -- initialization ------------------------------------------------------------

def random_init(n: int, r: int, alpha: float, seed: int) -> np.ndarray:
    """X0 = alpha * G with G i.i.d. N(0, 1/n)."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    g = rng.normals(seed, _INIT_STREAM, n * r).reshape(n, r) / np.sqrt(n)
    return alpha * g


def spectral_init(op: SensingOperator, y: np.ndarray, r: int) -> np.ndarray:
    """Top-r eigenpairs of A*(y), negative eigenvalues clipped to zero."""
    if r > op.n:
        raise ValueError("r exceeds ambient dimension")
    w = op.apply_adjoint(y)
    vals, vecs = np.linalg.eigh(w)
    order = np.argsort(vals)[::-1][:r]
    top = np.clip(vals[order], 0.0, None)
    return vecs[:, order] * np.sqrt(top)


@dataclass(frozen=True)
class DampingEstimate:
    lambda_hat: float


def estimate_damping(op: SensingOperator, y: np.ndarray, rank_guess: int,
                     c_frac: float = DAMPING_FRAC) -> DampingEstimate:
    """Practical damping surrogate: a fraction of the rank_guess-th eigenvalue
    of A*(y), floored at 1e-12 times the top eigenvalue."""
    if not 1 <= rank_guess <= op.n:
        raise ValueError("require 1 <= rank_guess <= n")
    vals = np.linalg.eigvalsh(op.apply_adjoint(y))[::-1]
    floor = 1e-12 * max(vals[0], np.finfo(float).tiny)
    lambda_hat = c_frac * max(vals[rank_guess - 1], floor)
    return DampingEstimate(lambda_hat=float(lambda_hat))


# -- run loop -------------------------------------------------------------------

def _make_x0(op, y, config):
    if config.init == "small_random":
        return random_init(op.n, config.r, config.alpha, config.seed_init)
    if config.init == "spectral":
        return spectral_init(op, y, config.r)
    if config.init == "explicit":
        return np.array(config.x0, dtype=float)
    raise ValueError(f"unknown init {config.init!r}")


# lambda_t per algorithm, from the config and the current loss f; None means
# no preconditioner (plain GD)
_DAMPING = {
    "gd": lambda config, f: None,
    "scaled_gd": lambda config, f: 0.0,
    "scaled_gd_lambda": lambda config, f: config.lam,
    "prec_gd": lambda config, f: np.sqrt(f),
}


class _Run:
    """The state of one run in a batch; advance() is one iteration of it."""

    def __init__(self, op, y, config, oracle, collect_diagnostics):
        if config.stop.target_rel_err is not None and oracle is None:
            raise ValueError("target_rel_err stopping needs an oracle")
        self.x = _make_x0(op, y, config)
        if self.x.shape != (op.n, config.r):
            raise ValueError(f"x0 shape {self.x.shape} does not match (n, r)")
        self.config, self.oracle = config, oracle
        self.u_perp = orthonormal_complement(oracle.u_star) if collect_diagnostics else None
        if oracle is not None:
            self.m_star, self.norm_m = dense_m_star(oracle), oracle.spectral_norm_m()
        self.damping = _DAMPING[config.algorithm]
        self.records = []
        self.loss0 = None
        self.best_loss = np.inf
        self.best_t = 0
        self.trajectory = None

    def advance(self, t, cur_loss, w, start):
        """Check, record and step at iteration t, given the loss and
        A*(A(X X^T) - y) at the current iterate; sets self.trajectory when the
        run stops or diverges."""
        config, oracle, x = self.config, self.oracle, self.x
        stop = config.stop
        if self.loss0 is None:
            self.loss0 = cur_loss
        if not np.isfinite(cur_loss) or (
                self.loss0 > 0 and cur_loss > DIVERGENCE_FACTOR * self.loss0):
            self._finish("diverged", t, cur_loss, start)
            return

        rel_fro = rel_op = None
        if oracle is not None:
            rel_fro = float(np.linalg.norm(x @ x.T - self.m_star)) / self.norm_m

        stop_reason = None
        if stop.target_rel_err is not None and rel_fro <= stop.target_rel_err:
            stop_reason = "target_reached"
        elif stop.patience is not None:
            if cur_loss < self.best_loss * (1.0 - stop.improve_tol):
                self.best_loss = cur_loss
                self.best_t = t
            elif t - self.best_t >= stop.patience:
                stop_reason = "patience"
        if stop_reason is None and t == config.max_iters:
            stop_reason = "max_iters"

        if t % config.record_every == 0 or stop_reason is not None:
            metrics = None
            if oracle is not None:
                rel_op = rel_err_op(x, oracle)
            if self.u_perp is not None:
                metrics = phase_metrics(decompose_iterate(x, oracle, u_perp=self.u_perp),
                                        oracle, config.lam)
            self.records.append(TrajectoryRecord(
                t=t, loss=cur_loss, rel_err_fro=rel_fro, rel_err_op=rel_op,
                metrics=metrics,
                elapsed_ms=(time.perf_counter_ns() - start) / 1e6))
        if stop_reason is not None:
            self._finish(stop_reason, t, cur_loss, start)
            return

        lam_t = self.damping(config, cur_loss)
        if lam_t is None:
            self.x = step_gd(x, w @ x, config.eta)
        else:
            try:
                self.x = step_scaled_gd_lambda(x, w @ x, config.eta, lam_t)
            except PreconditionerError:
                self._finish("preconditioner_singular", t, cur_loss, start)

    def _finish(self, stop_reason, t, cur_loss, start):
        final = IterateState(x=self.x, t=t, loss=cur_loss,
                             elapsed_ns=time.perf_counter_ns() - start)
        self.trajectory = Trajectory(records=tuple(self.records),
                                     stop_reason=stop_reason, final_state=final)


def run_batch(op: SensingOperator, y: np.ndarray, configs, oracle=None,
              collect_diagnostics: bool = False) -> list:
    """Run k configurations on one operator in lockstep and return their
    trajectories, in order.

    Each iteration makes one stacked forward and one stacked adjoint pass
    for all the runs still going; numpy sends a stack of one to the same gemv
    as a single matrix, so a run alone is the single-run path.  Every run
    keeps its own stopping rules, record cadence and steps, as run()
    describes; a run leaves the batch when it stops.  A run whose
    loss blows up leaves with stop reason "diverged", its records made before
    the blow-up and, as final state, the iterate that blew up.  A run whose
    preconditioner is singular at its step leaves the same way with stop
    reason "preconditioner_singular"; the others keep going.  elapsed_ms
    and elapsed_ns count from the batch's start.
    """
    if collect_diagnostics and not isinstance(oracle, GroundTruth):
        raise ValueError("diagnostics need a GroundTruth oracle")
    start = time.perf_counter_ns()
    runs = [_Run(op, y, config, oracle, collect_diagnostics)
            for config in configs]
    active = list(runs)
    t = 0
    while active:
        losses, ws = op.residual_grad(np.stack([r.x for r in active]), y)
        for state, cur_loss, w in zip(active, losses, ws):
            state.advance(t, float(cur_loss), w, start)
        active = [state for state in active if state.trajectory is None]
        t += 1
    return [state.trajectory for state in runs]


def run(op: SensingOperator, y: np.ndarray, config: SolverConfig,
        oracle=None, collect_diagnostics: bool = False) -> Trajectory:
    """Iterate the configured algorithm and return the trajectory.

    When an oracle (GroundTruth or ApproxTruth) is supplied, per-iteration
    relative errors against M* are recorded and the target stopping rule is
    active.  Records are made every record_every iterations and at the stop.
    Diagnostics (phase metrics) are computed only at record points and only
    on request; they need a GroundTruth oracle.  A loss that blows up raises
    DivergenceError carrying the records made so far, and a singular
    preconditioner raises PreconditionerError carrying them.  This is
    run_batch with one configuration.
    """
    traj, = run_batch(op, y, [config], oracle, collect_diagnostics)
    if traj.stop_reason == "diverged":
        raise DivergenceError(traj)
    if traj.stop_reason == "preconditioner_singular":
        raise PreconditionerError(f"preconditioner singular at iteration "
                                  f"{traj.final_state.t}; use lambda > 0", traj)
    return traj
