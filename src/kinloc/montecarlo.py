"""Scenario sampling, trial execution, and RMSE/timing aggregation.

A Scenario fixes the sensor layout, the uniform boxes the ground truth is
drawn from, the noise levels, the trial count and the master seed.  Every
trial derives its own random stream from (seed, trial_index) through numpy's
SeedSequence, so results are a pure function of the scenario: execution
order, thread count, and which other trials ran never change any number.

The two sweep drivers reproduce the standard experiments: velocity RMSE
against the range-rate noise level (constant-velocity targets, sigma_range
pinned to 1), and acceleration RMSE against the drr noise level
(constant-acceleration targets, sigma_range = sigma_range_rate = 1).
Trials, ensembles and sweeps default to the ``propagated`` weight rule.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateGeometry, EmptyEnsemble, SingularGeometry,
                     TooFewSensors, ZeroRange)
from .estim import PROPAGATED, EstimationResult, WeightRule, _timed_pipeline
# not called here: perfbench's tracer test reads montecarlo.estimate_position
from .estim import estimate_position  # noqa: F401
from .model import NoiseSpec, SensorArray, TargetState, _locked, synthesize_measurements

# the reference eight-sensor layout used by the shipped experiments
DEFAULT_SENSOR_POSITIONS = np.array([
    [0.0, 0.0],
    [100.0, 100.0],
    [-100.0, 100.0],
    [100.0, -100.0],
    [-100.0, -100.0],
    [-50.0, 50.0],
    [50.0, 50.0],
    [-50.0, -50.0],
])

DEFAULT_POSITION_BOX = ((0.0, 0.0), (100.0, 100.0))
DEFAULT_VELOCITY_BOX = ((-20.0, -20.0), (20.0, 20.0))
DEFAULT_ACCELERATION_BOX = ((-10.0, -10.0), (10.0, 10.0))
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 7

MOTION_MODES = ("constant_velocity", "constant_acceleration")
METHODS = ("position", "velocity_ls", "velocity_wls", "accel_ls", "accel_wls")

_TRIAL_ERRORS = (ZeroRange, TooFewSensors, DegenerateGeometry, SingularGeometry)


def _as_box(value, name: str) -> np.ndarray:
    box = np.asarray(value, dtype=np.float64)
    if box.shape != (2, 2):
        raise ValueError(f"{name} must be ((xmin, ymin), (xmax, ymax)), got shape {box.shape}")
    if not np.all(np.isfinite(box)):
        raise ValueError(f"{name} must be finite")
    if np.any(box[0] > box[1]):
        raise ValueError(f"{name} must have min <= max componentwise")
    return _locked(box.copy())


@dataclass(frozen=True)
class Scenario:
    sensors: SensorArray
    position_box: np.ndarray          # ((xmin, ymin), (xmax, ymax)) m
    velocity_box: np.ndarray          # m/s
    acceleration_box: np.ndarray      # m/s^2
    noise: NoiseSpec
    trials: int
    seed: int
    motion_mode: str

    def __post_init__(self):
        if not isinstance(self.sensors, SensorArray):
            object.__setattr__(self, "sensors", SensorArray(self.sensors))
        object.__setattr__(self, "position_box", _as_box(self.position_box, "position_box"))
        object.__setattr__(self, "velocity_box", _as_box(self.velocity_box, "velocity_box"))
        object.__setattr__(self, "acceleration_box",
                           _as_box(self.acceleration_box, "acceleration_box"))
        if not isinstance(self.noise, NoiseSpec):
            raise TypeError("noise must be a NoiseSpec")
        if int(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", int(self.trials))
        if int(self.seed) < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.motion_mode not in MOTION_MODES:
            raise ValueError(f"motion_mode must be one of {MOTION_MODES}, got {self.motion_mode!r}")


def default_scenario(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                     noise: NoiseSpec | None = None,
                     motion_mode: str = "constant_velocity",
                     sensors=None) -> Scenario:
    """Scenario with the reference layout and sampling boxes."""
    return Scenario(
        sensors=SensorArray(DEFAULT_SENSOR_POSITIONS if sensors is None else sensors),
        position_box=DEFAULT_POSITION_BOX,
        velocity_box=DEFAULT_VELOCITY_BOX,
        acceleration_box=DEFAULT_ACCELERATION_BOX,
        noise=noise if noise is not None else NoiseSpec(),
        trials=trials,
        seed=seed,
        motion_mode=motion_mode,
    )


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    truth: TargetState
    estimates: EstimationResult | None
    squared_errors: dict            # method -> squared Euclidean error
    stage_times: dict               # method -> wall seconds for that stage; {} on failure
    failure: str | None             # error class name, or None on success

    @property
    def ok(self) -> bool:
        return self.failure is None


def sample_truth(scenario: Scenario, rng: np.random.Generator) -> TargetState:
    """Draw the ground-truth state from the scenario boxes (position, velocity,
    then acceleration; constant_velocity mode forces zero acceleration)."""
    pos = rng.uniform(scenario.position_box[0], scenario.position_box[1])
    vel = rng.uniform(scenario.velocity_box[0], scenario.velocity_box[1])
    if scenario.motion_mode == "constant_acceleration":
        acc = rng.uniform(scenario.acceleration_box[0], scenario.acceleration_box[1])
    else:
        acc = np.zeros(2)
    return TargetState(pos, vel, acc)


def _squared_error(estimate, truth) -> float:
    """np.sum((estimate - truth) ** 2) of two 2-vectors, on floats in the same order."""
    (e0, e1), (t0, t1) = estimate.tolist(), truth.tolist()
    return (e0 - t0) * (e0 - t0) + (e1 - t1) * (e1 - t1)


def run_trial(scenario: Scenario, trial_index: int,
              weight_rule: WeightRule = PROPAGATED) -> TrialRecord:
    """Execute one trial: sample truth, synthesize measurements, run all five
    estimators.  Estimator failures are captured in the record, not raised."""
    if not 0 <= int(trial_index) < 2 ** 63:
        raise ValueError(f"trial_index out of range: {trial_index}")
    root = np.random.SeedSequence(entropy=(scenario.seed, int(trial_index)))
    truth_seq, meas_seq = root.spawn(2)
    truth = sample_truth(scenario, np.random.default_rng(truth_seq))
    try:
        measurements = synthesize_measurements(truth, scenario.sensors, scenario.noise,
                                               np.random.default_rng(meas_seq))
        estimates, stage_times = _timed_pipeline(measurements, scenario.sensors, weight_rule)
    except _TRIAL_ERRORS as exc:
        return TrialRecord(trial_index, truth, None, {}, {}, type(exc).__name__)

    squared_errors = {
        "position": _squared_error(estimates.position.position, truth.position),
        "velocity_ls": _squared_error(estimates.velocity_ls.value, truth.velocity),
        "velocity_wls": _squared_error(estimates.velocity_wls.value, truth.velocity),
        "accel_ls": _squared_error(estimates.accel_ls.value, truth.acceleration),
        "accel_wls": _squared_error(estimates.accel_wls.value, truth.acceleration),
    }
    return TrialRecord(trial_index, truth, estimates, squared_errors, stage_times, None)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def run_ensemble(scenario: Scenario, weight_rule: WeightRule = PROPAGATED,
                 threads: int = 1) -> list:
    """All trials of a scenario, in trial-index order regardless of threading.

    The pool never gets more workers than there are trials or CPUs available
    to the process, whatever ``threads`` asks for.
    """
    indices = range(scenario.trials)
    workers = min(threads, _available_cpus(), scenario.trials)
    if workers <= 1:
        return [run_trial(scenario, i, weight_rule) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: run_trial(scenario, i, weight_rule), indices))


def rmse(records, method: str) -> float:
    """Root-mean-square Euclidean error over the successful trials.

    Failed trials are excluded; the caller accounts for them separately.
    Raises EmptyEnsemble when no trial succeeded.
    """
    if method not in METHODS:
        raise KeyError(f"unknown method {method!r}, expected one of {METHODS}")
    sq = np.array([rec.squared_errors[method] for rec in records if rec.ok])
    if sq.size == 0:
        raise EmptyEnsemble(f"no successful trials to aggregate for {method!r}")
    return float(np.sqrt(np.mean(sq)))


@dataclass(frozen=True)
class SweepPoint:
    sigma: float
    rmse_position: float
    rmse_velocity_ls: float
    rmse_velocity_wls: float
    rmse_accel_ls: float
    rmse_accel_wls: float
    failures: int
    successes: int
    mean_stage_times: dict          # method -> mean wall seconds per successful trial


@dataclass(frozen=True)
class SweepResult:
    swept_parameter: str
    grid: tuple
    points: tuple


def _check_grid(grid):
    values = tuple(float(g) for g in grid)
    if not values:
        raise ValueError("grid must be nonempty")
    if any(v <= 0.0 for v in values):
        raise ValueError("grid values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("grid must be strictly increasing")
    return values


def _aggregate_point(sigma: float, records) -> SweepPoint:
    failures = sum(1 for rec in records if not rec.ok)
    successes = len(records) - failures
    mean_times = {}
    for method in METHODS:
        times = [rec.stage_times[method] for rec in records if rec.ok]
        mean_times[method] = float(np.mean(times)) if times else 0.0
    return SweepPoint(
        sigma=sigma,
        rmse_position=rmse(records, "position"),
        rmse_velocity_ls=rmse(records, "velocity_ls"),
        rmse_velocity_wls=rmse(records, "velocity_wls"),
        rmse_accel_ls=rmse(records, "accel_ls"),
        rmse_accel_wls=rmse(records, "accel_wls"),
        failures=failures,
        successes=successes,
        mean_stage_times=mean_times,
    )


def _sweep(base: Scenario, swept_parameter: str, grid, motion_mode: str,
           noise_for, weight_rule: WeightRule, threads: int) -> SweepResult:
    values = _check_grid(grid)
    points = []
    for sigma in values:
        scenario = replace(base, noise=noise_for(sigma), motion_mode=motion_mode)
        records = run_ensemble(scenario, weight_rule, threads)
        points.append(_aggregate_point(sigma, records))
    return SweepResult(swept_parameter, values, tuple(points))


def sweep_velocity_experiment(base: Scenario, sigma_rr_grid,
                              weight_rule: WeightRule = PROPAGATED,
                              threads: int = 1) -> SweepResult:
    """Velocity RMSE versus range-rate noise: constant-velocity targets,
    sigma_range fixed at 1 m, drr noise taken from the base scenario."""
    return _sweep(
        base, "sigma_range_rate", sigma_rr_grid, "constant_velocity",
        lambda s: NoiseSpec(1.0, s, base.noise.sigma_drr),
        weight_rule, threads)


def sweep_acceleration_experiment(base: Scenario, sigma_drr_grid,
                                  weight_rule: WeightRule = PROPAGATED,
                                  threads: int = 1) -> SweepResult:
    """Acceleration RMSE versus drr noise: constant-acceleration targets,
    sigma_range = sigma_range_rate = 1."""
    return _sweep(
        base, "sigma_drr", sigma_drr_grid, "constant_acceleration",
        lambda s: NoiseSpec(1.0, 1.0, s),
        weight_rule, threads)


def timing_report(sweep: SweepResult) -> dict:
    """Mean per-trial wall time (seconds) for each method over the whole sweep."""
    totals = {method: 0.0 for method in METHODS}
    count = 0
    for point in sweep.points:
        for method in METHODS:
            totals[method] += point.mean_stage_times[method] * point.successes
        count += point.successes
    if count == 0:
        return {method: 0.0 for method in METHODS}
    return {method: totals[method] / count for method in METHODS}
