"""Independent verification machinery.

Two oracles, deliberately on different algorithmic routes than the production
code so agreement is evidence rather than tautology:

* finite-difference differentiation of the range along constant-acceleration
  trajectories, checking the analytic range rate and range acceleration;
* a dense weighted least-squares solve through numpy's SVD-based lstsq,
  checking the closed-form normal-equation stage solver.

``verification_suite`` bundles both over seeded random instances and backs the
``kinloc verify`` CLI subcommand.  It looks ``model.range_rate`` and
``model.range_accel`` up at the call, so a test that patches in a broken one
sees the suite fail.
"""

from dataclasses import dataclass

import numpy as np

from . import estim, model
from .errors import SingularGeometry, ZeroRange

FD_STEP_RATE = 1e-4   # s; first derivative, truncation ~h^2 vs roundoff ~eps/h
FD_STEP_ACCEL = 1e-3  # s; second derivative, roundoff ~eps/h^2 pushes h up


def _step(step) -> float:
    """A finite-difference step as a float: ``model._real``, then ValueError unless in (0, 1]."""
    step = model._real(step, "step")
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must be in (0, 1], got {step}")
    return step


def _range_at(target: model.TargetState, sensor_pos, t: float) -> float:
    r = model.range_to(model.propagate(target, t).position, sensor_pos)
    if r == 0.0:
        raise ZeroRange("trajectory passes through the sensor at an evaluation point")
    return r


def fd_range_rate(target: model.TargetState, sensor_pos, step: float = FD_STEP_RATE) -> float:
    """Central-difference range rate over the propagated trajectory, O(h^2)."""
    h = _step(step)
    _range_at(target, sensor_pos, 0.0)
    return (_range_at(target, sensor_pos, h) - _range_at(target, sensor_pos, -h)) / (2.0 * h)


def fd_range_accel(target: model.TargetState, sensor_pos,
                   step: float = FD_STEP_ACCEL) -> float:
    """Second-order central difference of range, O(h^2)."""
    h = _step(step)
    return (_range_at(target, sensor_pos, h)
            - 2.0 * _range_at(target, sensor_pos, 0.0)
            + _range_at(target, sensor_pos, -h)) / (h * h)


def dense_wls_solve(rows, rhs, weights) -> np.ndarray:
    """Reference minimizer of sum_i w_i (rhs_i - rows_i . x)^2 via SVD lstsq.

    Scales the system by sqrt(w) and solves with numpy's lstsq, a different
    factorization path than the production normal equations.  Raises
    ValueError, naming the input, unless rows is a finite matrix and rhs and
    weights are finite vectors with one entry per row.
    """
    rows = model._finite(rows, "rows", (None, None))
    rhs = model._finite(rhs, "rhs", (len(rows),))
    weights = model._finite(weights, "weights", (len(rows),))
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    sw = np.sqrt(weights)
    x, _, rank, _ = np.linalg.lstsq(rows * sw[:, None], rhs * sw, rcond=None)
    if rank < rows.shape[1]:
        raise SingularGeometry(f"weighted system has rank {rank} < {rows.shape[1]}")
    return x


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# random-instance distribution for the suite; min range keeps higher range
# derivatives bounded so the fd truncation error stays well under tolerance
_POS_BOX = (0.0, 100.0)
_VEL_BOX = (-20.0, 20.0)
_ACC_BOX = (-10.0, 10.0)
_SENSOR_BOX = (-100.0, 100.0)
_MIN_RANGE = 15.0
_STAGE_ROWS, _STAGE_MAX_COND = 8, 1e6   # each random stage system's rows, Gram condition cap

TOL_RATE = 1e-6
TOL_ACCEL = 1e-4
TOL_SOLVER_REL = 1e-9


def _random_instance(rng):
    while True:
        target = model.TargetState(
            rng.uniform(*_POS_BOX, size=2),
            rng.uniform(*_VEL_BOX, size=2),
            rng.uniform(*_ACC_BOX, size=2),
        )
        sensor = rng.uniform(*_SENSOR_BOX, size=2)
        if model.range_to(target.position, sensor) >= _MIN_RANGE:
            return target, sensor


def _random_stage_system(rng):
    while True:
        p_hat = rng.uniform(*_POS_BOX, size=2)
        sensors = rng.uniform(*_SENSOR_BOX, size=(_STAGE_ROWS, 2))
        rows = p_hat[None, :] - sensors
        x_true = rng.uniform(-20.0, 20.0, size=2)
        rhs = rows @ x_true + rng.standard_normal(_STAGE_ROWS)
        weights = rng.uniform(0.2, 2.0, size=_STAGE_ROWS)
        cond = np.linalg.cond(rows * np.sqrt(weights)[:, None])
        if cond * cond <= _STAGE_MAX_COND:
            return rows, rhs, weights


def verification_suite(instances: int = 1000, seed: int = 7) -> VerifyReport:
    """Compare ``model``'s analytic derivatives, looked up at the call, and the
    closed-form stage solver against their independent oracles on seeded
    random instances (at least one)."""
    instances = model._as_index(instances, "instances", 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_rate = 0.0
    max_accel = 0.0
    for _ in range(instances):
        target, sensor = _random_instance(rng)
        dev_rate = abs(model.range_rate(target, sensor) - fd_range_rate(target, sensor))
        dev_accel = abs(model.range_accel(target, sensor) - fd_range_accel(target, sensor))
        # np.maximum keeps a NaN, which then fails the check; max(0.0, nan) is 0.0
        max_rate = float(np.maximum(max_rate, dev_rate))
        max_accel = float(np.maximum(max_accel, dev_accel))

    max_solver = 0.0
    for _ in range(instances):
        rows, rhs, weights = _random_stage_system(rng)
        closed = estim.solve_linear_stage(rows, rhs, weights).value
        dense = dense_wls_solve(rows, rhs, weights)
        max_solver = float(np.maximum(max_solver,
                                      np.linalg.norm(closed - dense) / np.linalg.norm(dense)))

    return VerifyReport(checks=(
        VerifyCheck("range rate: analytic vs central difference", max_rate, TOL_RATE),
        VerifyCheck("range accel: analytic vs central difference", max_accel, TOL_ACCEL),
        VerifyCheck("stage solver vs dense SVD reference (relative)", max_solver, TOL_SOLVER_REL),
    ))
