"""Three-stage closed-form estimation pipeline.

Stage 1 recovers position from ranges by linearized trilateration: with
theta = [x, y, x^2 + y^2] the squared range equations become linear, and the
unconstrained least-squares solution yields the position estimate (theta3 is
kept as a diagnostic only).

Stage 2 recovers velocity.  Multiplying the range-rate equation by the range
turns it into the linear system  v . (p - p_i) = a_i * r_i,  whose rows and
ranges r_i both come from the stage-1 position estimate.  Uniform weights
give the LS estimate; weights 1/r_i (the default WLS rule) down-rank far
sensors, whose transformed noise r_i * n_i is larger.

Stage 3 recovers acceleration the same way from the pseudo-measurements
k_i = b_i * r_i - ||v_hat||^2 + a_i^2, which equal  a . (p - p_i)  when the
inputs are exact.  To first order the error of k_i is
r_i * n_b + 2 a_i * n_a + b_i * dr_i - 2 v_hat . dv: a per-row part whose
range-free term 2 a_i n_a dominates at small drr noise, so 1/r_i does not
track its variance, plus an offset that every row shares through ||v_hat||^2.
The ``propagated`` weight rule solves stage 3 as the generalized least
squares problem for exactly that covariance (per-row variances
D_i = r_i^2 s_b^2 + 4 a_i^2 s_a^2 + b_i^2 s_r^2 plus the shared variance
4 v_hat' Cov(v_hat) v_hat), in the spirit of the auxiliary-variable WLS of
Chan & Ho (1994) and Ho & Xu (2004); its velocity stage keeps the 1/r_i rule.

Stages 2 and 3 share one path: the kernels return the rows (p_hat - p_i) and
the ranges, this module turns the WeightRule into per-row weights
(``row_weights``) and hands columns, right-hand side and weights to the 2x2
weighted normal-equation kernel, which guards the condition number; the
kernels raise the named errors.  oracle.py cross-checks the solves densely.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import SingularGeometry, TooFewSensors
from .model import MeasurementSet, SensorArray, as_vec2, _locked

WEIGHT_MODES = ("uniform", "inverse_range", "propagated")


@dataclass(frozen=True)
class WeightRule:
    """Stage weighting rule; r is the range implied by the stage-1 position.

    ``uniform`` reduces every stage to plain LS.  ``inverse_range`` (the
    default here, the paper's WLS) weights each row of both stages by 1/r.
    ``propagated`` weights velocity rows by 1/r as well, but solves the
    acceleration stage with the first-order covariance of its
    pseudo-measurements, propagated through those 1/r velocity weights (see
    ``acceleration_error_model``).  ``row_weights`` is the one place the
    rule turns into per-row weights.

    ``WeightRule()`` stays the paper's 1/r rule so that library callers get
    the published estimator; the Monte Carlo drivers and the CLI default to
    ``PROPAGATED``, whose acceleration WLS no longer trails plain LS when the
    drr noise is small.
    """

    mode: str = "inverse_range"

    def __post_init__(self):
        if self.mode not in WEIGHT_MODES:
            raise ValueError(f"mode must be one of {WEIGHT_MODES}, got {self.mode!r}")


UNIFORM = WeightRule(mode="uniform")
PROPAGATED = WeightRule(mode="propagated")


def row_weights(rhat, weight_rule: WeightRule) -> np.ndarray:
    """Per-row weights of a stage solve from the ranges r implied by p_hat:
    ones under ``uniform``, 1/r under ``inverse_range`` and ``propagated``
    (whose acceleration stage then reweights, see ``estimate_acceleration``)."""
    if weight_rule.mode == "uniform":
        return np.ones(len(rhat))
    return 1.0 / rhat


@dataclass(frozen=True)
class PositionSolution:
    position: np.ndarray    # m
    theta3: float           # m^2, diagnostic: the x^2+y^2 component of theta
    residual_norm: float
    gram_condition: float


@dataclass(frozen=True)
class KinematicEstimate:
    value: np.ndarray       # m/s for velocity, m/s^2 for acceleration
    method: str             # "LS" | "WLS"
    gram_condition: float
    pseudo_measurements: np.ndarray


@dataclass(frozen=True)
class EstimationResult:
    """Full pipeline output: position plus LS and WLS velocity/acceleration."""

    position: PositionSolution
    velocity_ls: KinematicEstimate
    velocity_wls: KinematicEstimate
    accel_ls: KinematicEstimate
    accel_wls: KinematicEstimate


def _check_lengths(measurements: MeasurementSet, sensors: SensorArray):
    if len(measurements) != len(sensors):
        raise ValueError(
            f"measurement count {len(measurements)} does not match sensor count {len(sensors)}"
        )


def estimate_position(measurements: MeasurementSet, sensors: SensorArray) -> PositionSolution:
    """Trilateration position estimate from the measured ranges.

    Requires N >= 3 sensors in non-collinear position; raises TooFewSensors or
    DegenerateGeometry otherwise.
    """
    _check_lengths(measurements, sensors)
    n = len(sensors)
    if n < 3:
        raise TooFewSensors(f"position stage needs at least 3 sensors, got {n}")
    x, y, theta3, resid, cond = _kernels.position_solve(
        sensors.xs, sensors.ys, measurements.ranges, _kernels.COND_CAP_DEFAULT)
    return PositionSolution(as_vec2((x, y)), theta3, resid, cond)


def _stage_rows(sensors, p_hat):
    """Stage rows (p_hat - p_i) as two columns, and the ranges r_i implied by p_hat."""
    px, py = as_vec2(p_hat, "p_hat").tolist()
    return _kernels.system_rows(sensors.xs, sensors.ys, px, py)


def _solve2(bx, by, rhs, weights, pseudo, method) -> KinematicEstimate:
    x0, x1, cond = _kernels.wls_solve2(bx, by, rhs, weights, _kernels.COND_CAP_DEFAULT)
    return KinematicEstimate(as_vec2((x0, x1)), method, cond, _locked(pseudo.copy()))


def _stage_arrays(B, rhs, per_row, name):
    B = np.asarray(B, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    per_row = np.asarray(per_row, dtype=np.float64)
    if B.ndim != 2 or B.shape[1] != 2:
        raise ValueError(f"B must have shape (N, 2), got {B.shape}")
    if B.shape[0] == 0:
        raise ValueError("stage system is empty: B has no rows")
    if rhs.shape != (B.shape[0],) or per_row.shape != (B.shape[0],):
        raise ValueError(f"rhs and {name} must be N-vectors matching B")
    for label, arr in (("B", B), ("rhs", rhs), (name, per_row)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{label} must be finite")
    return B, rhs, per_row


def solve_linear_stage(B, rhs, weights) -> KinematicEstimate:
    """Exact minimizer of sum_i W_i (rhs_i - B_i . x)^2 for a 2D unknown.

    Labelled "LS" when every weight is equal, "WLS" otherwise.  Raises
    ValueError unless B, rhs and weights are finite and every weight is
    positive, and SingularGeometry when the weighted Gram matrix is singular
    or its condition number exceeds the kernels' cap (all rows nearly
    parallel).
    """
    B, rhs, weights = _stage_arrays(B, rhs, weights, "weights")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    method = "LS" if np.all(weights == weights[0]) else "WLS"
    # as in _shared_error_solve: an exact power-of-two scale that brings the
    # largest weight into [0.5, 1) keeps the Gram products within range
    weights = np.ldexp(weights, -math.frexp(weights.max())[1])
    return _solve2(B[:, 0], B[:, 1], rhs, weights, rhs, method)


def solve_shared_error_stage(B, rhs, variances, shared_variance: float) -> KinematicEstimate:
    """Generalized LS for rhs = B x + e with Cov(e) = diag(variances) + s2 * 1 1^T.

    This equals weighted LS with weights 1/variances on the augmented unknown
    (x, c), rows [B_i, 1], plus one prior row c = 0 of weight 1/s2.  It is
    solved in closed form with one 2-unknown WLS: with w = 1/variances,
    S = sum(w) and lam = 1 - 1/sqrt(1 + s2 * S), subtracting lam times the
    w-weighted mean from each column of B and from rhs leaves a WLS problem
    with weights w whose normal equations are those of the GLS problem.
    lam = 0 is plain inverse-variance WLS; lam -> 1 leaves c unconstrained.

    Zero variances: a row whose variance is 0 while others are positive gets
    the smallest positive variance (a first-order variance of 0 does not make
    a row exact, and a finite weight keeps the Gram matrix conditioned by the
    other rows).  If every variance is 0 the rows carry nothing to weight by:
    the solve falls back to uniform weights and s2 = 0, i.e. plain LS.
    Raises SingularGeometry like ``solve_linear_stage``.
    """
    B, rhs, variances = _stage_arrays(B, rhs, variances, "variances")
    return _shared_error_solve(B[:, 0], B[:, 1], rhs, variances, float(shared_variance))


def _shared_error_solve(bx, by, rhs, variances, s2) -> KinematicEstimate:
    """``solve_shared_error_stage`` on the columns of B."""
    var = variances.tolist()
    lowest = min(var)
    if not (lowest >= 0.0 and all(map(math.isfinite, var)) and 0.0 <= s2 < math.inf):
        raise ValueError("variances and shared_variance must be finite and >= 0")
    if lowest == 0.0:
        positive = [d for d in var if d > 0.0]
        if positive:
            floor = min(positive)
            var = [max(d, floor) for d in var]
        else:
            var = [1.0] * len(var)
            s2 = 0.0
    # Scaling the covariance leaves the GLS solution unchanged, and scaling by
    # a power of two is exact: bring the smallest variance into [1, 2) so that
    # the weights (at most 1) and their Gram products stay within range.
    e = math.frexp(min(var))[1] - 1
    var = [math.ldexp(d, -e) for d in var]
    s2 = math.ldexp(s2, -e)
    w = [1.0 / d for d in var]
    total = sx = sy = sk = 0.0
    for wi, x, y, k in zip(w, bx.tolist(), by.tolist(), rhs.tolist()):
        total += wi
        sx += wi * x
        sy += wi * y
        sk += wi * k
    shrink = (1.0 - 1.0 / math.sqrt(1.0 + s2 * total)) / total
    return _solve2(bx - shrink * sx, by - shrink * sy, rhs - shrink * sk, np.array(w),
                   rhs, "WLS")


def estimate_velocity(measurements: MeasurementSet, sensors: SensorArray, p_hat,
                      weight_rule: WeightRule = WeightRule()) -> KinematicEstimate:
    """Velocity estimate from range rates, given the stage-1 position estimate.

    Solves rows (p_hat - p_i) against d_i = a_i * r_i, with r_i the range
    implied by p_hat and weights from ``row_weights``.  Raises ZeroRange when
    p_hat coincides with a sensor.
    """
    _check_lengths(measurements, sensors)
    bx, by, rhat = _stage_rows(sensors, p_hat)
    d = measurements.range_rates * rhat
    method = "LS" if weight_rule.mode == "uniform" else "WLS"
    return _solve2(bx, by, d, row_weights(rhat, weight_rule), d, method)


def acceleration_pseudo_measurements(measurements: MeasurementSet, sensors: SensorArray,
                                     p_hat, v_hat) -> np.ndarray:
    """Transformed drr measurements k_i = b_i * r_i - ||v_hat||^2 + a_i^2,
    with r_i the range implied by p_hat.

    With exact p_hat, v_hat and noiseless measurements, k_i equals
    a . (p_hat - p_i) exactly.
    """
    _check_lengths(measurements, sensors)
    v = as_vec2(v_hat, "v_hat")
    _, _, rhat = _stage_rows(sensors, p_hat)
    v2 = float(v @ v)
    return measurements.drrs * rhat - v2 + measurements.range_rates ** 2


def acceleration_error_model(measurements: MeasurementSet, ranges, bx, by, velocity_weights,
                             v_hat):
    """First-order error model of the pseudo-measurements k_i, as (D, s2).

    ``ranges`` are the r_i that multiply b_i in k_i, ``bx`` and ``by`` the
    columns of the stage rows (p_hat - p_i), and ``velocity_weights`` the
    weights of the velocity solve that produced ``v_hat``.  With noise levels
    s_r, s_a, s_b from ``measurements.noise``, the per-row variances are
    D_i = r_i^2 s_b^2 + 4 a_i^2 s_a^2 + b_i^2 s_r^2, and s2 = 4 v' Cov(v) v is
    the variance of the offset -2 v_hat . dv that every row shares, where
    Cov(v) = G^-1 M G^-1 propagates the per-row variance r_i^2 s_a^2 +
    a_i^2 s_r^2 of d_i = a_i r_i through the velocity solve
    (G = sum w_i B_i B_i', M = sum w_i^2 var(d_i) B_i B_i').
    Raises SingularGeometry when G is singular, or when the model is not
    finite: a measurement too large to square (a drr near 1e154, from a
    target within about 1e-150 m of a sensor) leaves the rows unweightable.
    """
    noise = measurements.noise
    var_r = noise.sigma_range ** 2
    var_a = noise.sigma_range_rate ** 2
    var_b = noise.sigma_drr ** 2
    variances = []
    g00 = g01 = g11 = m00 = m01 = m11 = 0.0
    for r, a, b, w, x, y in zip(np.asarray(ranges).tolist(), measurements.range_rates.tolist(),
                                measurements.drrs.tolist(), np.asarray(velocity_weights).tolist(),
                                bx.tolist(), by.tolist(), strict=True):
        variances.append(r * r * var_b + 4.0 * a * a * var_a + b * b * var_r)
        m = w * w * (r * r * var_a + a * a * var_r)
        g00 += w * x * x
        g01 += w * x * y
        g11 += w * y * y
        m00 += m * x * x
        m01 += m * x * y
        m11 += m * y * y
    det = g00 * g11 - g01 * g01
    if not det > 0.0:
        raise SingularGeometry("velocity Gram matrix is singular")
    v0, v1 = as_vec2(v_hat, "v_hat").tolist()
    u0 = (g11 * v0 - g01 * v1) / det      # u = G^-1 v, so v' Cov(v) v = u' M u
    u1 = (g00 * v1 - g01 * v0) / det
    shared = 4.0 * (u0 * u0 * m00 + 2.0 * u0 * u1 * m01 + u1 * u1 * m11)
    if not (all(map(math.isfinite, variances)) and math.isfinite(shared)):
        raise SingularGeometry("stage-3 error model overflows (a measurement too large to square)")
    # M is positive semidefinite; rounding may still take u' M u a hair below 0
    return np.array(variances), max(0.0, shared)


def estimate_acceleration(measurements: MeasurementSet, sensors: SensorArray, p_hat, v_hat,
                          weight_rule: WeightRule = WeightRule()) -> KinematicEstimate:
    """Acceleration estimate from drr measurements, given stage-1/2 estimates.

    Solves rows (p_hat - p_i) against the pseudo-measurements k_i of
    ``acceleration_pseudo_measurements``, with weights from ``row_weights``;
    under the ``propagated`` rule it solves the GLS problem of
    ``acceleration_error_model`` instead, taking ``v_hat`` to come from the
    velocity stage with the same rule.
    """
    k = acceleration_pseudo_measurements(measurements, sensors, p_hat, v_hat)
    bx, by, rhat = _stage_rows(sensors, p_hat)
    w = row_weights(rhat, weight_rule)
    if weight_rule.mode == "propagated":
        variances, shared = acceleration_error_model(measurements, rhat, bx, by, w, v_hat)
        return _shared_error_solve(bx, by, k, variances, shared)
    method = "LS" if weight_rule.mode == "uniform" else "WLS"
    return _solve2(bx, by, k, w, k, method)


def _timed_pipeline(measurements: MeasurementSet, sensors: SensorArray,
                    weight_rule: WeightRule):
    """The five stages in order, as (EstimationResult, stage wall seconds keyed
    by the EstimationResult field names).  The stages are called through this
    module's globals, so a tracer that patches them sees every call."""
    clock = time.perf_counter
    t0 = clock()
    pos = estimate_position(measurements, sensors)
    t1 = clock()
    v_ls = estimate_velocity(measurements, sensors, pos.position, UNIFORM)
    t2 = clock()
    v_wls = estimate_velocity(measurements, sensors, pos.position, weight_rule)
    t3 = clock()
    a_ls = estimate_acceleration(measurements, sensors, pos.position, v_ls.value, UNIFORM)
    t4 = clock()
    a_wls = estimate_acceleration(measurements, sensors, pos.position, v_wls.value,
                                  weight_rule)
    t5 = clock()
    times = {"position": t1 - t0, "velocity_ls": t2 - t1, "velocity_wls": t3 - t2,
             "accel_ls": t4 - t3, "accel_wls": t5 - t4}
    return EstimationResult(pos, v_ls, v_wls, a_ls, a_wls), times


def estimate_all(measurements: MeasurementSet, sensors: SensorArray,
                 weight_rule: WeightRule = WeightRule()) -> EstimationResult:
    """Run the full sequential pipeline: position, then LS and WLS velocity and
    acceleration.  Each WLS acceleration consumes the matching WLS velocity."""
    return _timed_pipeline(measurements, sensors, weight_rule)[0]
