"""ScaledGD(lambda): damped preconditioned gradient descent for
overparameterized low-rank matrix sensing, with GD / ScaledGD / PrecGD
baselines, Gaussian and identity sensing operators, phase diagnostics,
and a reproducible experiment harness."""

__version__ = "0.1.0"

from .problem import GroundTruth, dense_m_star, make_approx_truth, make_ground_truth
from .sensing import (Measurements, MemoryCapError, RipEstimate, SensingOperator,
                      estimate_rip_constant, gaussian_operator,
                      identity_operator, measure)
from .solver import (ALGORITHMS, DampingEstimate, IterateState, SolverConfig,
                     StoppingRule, Trajectory, estimate_damping, random_init, run,
                     run_batch, spectral_init, step_gd, step_prec_gd,
                     step_scaled_gd, step_scaled_gd_lambda)
from .diagnostics import (IterateDecomposition, PhaseMetrics, decompose_iterate,
                          orthonormal_complement, phase_metrics, rel_err_op)
from .experiments import (ExperimentRecord, PRESETS, SweepSpec, emit_csv,
                          fit_loglog_slope, minimax_reference, preset_spec,
                          run_sweep, sweep_condition_number, sweep_init_scale,
                          sweep_noise, sweep_overparam_rank)
