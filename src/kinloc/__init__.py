"""Closed-form estimation of a moving target's position, velocity, and
acceleration from per-sensor range, range-rate, and derivative-of-range-rate
measurements, with Monte Carlo experiment drivers and numerical oracles.
"""

from .errors import (ConfigError, DegenerateGeometry, EmptyEnsemble, KinlocError,
                     SingularGeometry, TooFewSensors, ZeroRange)
from .estim import (EstimationResult, KinematicEstimate, PositionSolution, WeightRule,
                    estimate_acceleration, estimate_all, estimate_position,
                    estimate_velocity)
from .model import (MeasurementSet, NoiseSpec, SensorArray, TargetState, propagate,
                    range_accel, range_rate, range_to, synthesize_measurements,
                    true_measurements)
from .montecarlo import (Scenario, SweepPoint, SweepResult, TrialRecord,
                         default_scenario, rmse, run_ensemble, run_trial,
                         sweep_acceleration_experiment, sweep_velocity_experiment,
                         timing_report)
from .oracle import (FdConfig, VerifyCheck, VerifyReport, dense_wls_solve,
                     fd_range_accel, fd_range_rate, verification_suite)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DegenerateGeometry", "EmptyEnsemble", "KinlocError",
    "SingularGeometry", "TooFewSensors", "ZeroRange",
    "EstimationResult", "KinematicEstimate", "PositionSolution", "WeightRule",
    "estimate_acceleration", "estimate_all", "estimate_position", "estimate_velocity",
    "MeasurementSet", "NoiseSpec", "SensorArray", "TargetState", "propagate",
    "range_accel", "range_rate", "range_to", "synthesize_measurements",
    "true_measurements",
    "Scenario", "SweepPoint", "SweepResult", "TrialRecord", "default_scenario",
    "rmse", "run_ensemble", "run_trial", "sweep_acceleration_experiment",
    "sweep_velocity_experiment", "timing_report",
    "FdConfig", "VerifyCheck", "VerifyReport", "dense_wls_solve", "fd_range_accel",
    "fd_range_rate", "verification_suite",
    "__version__",
]
