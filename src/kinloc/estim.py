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
the ranges, this module turns the WeightRule into per-row weights and forms
the five weighted sums of the 2x2 normal equations, and the kernel
``wls_solve2`` solves from those sums and guards the condition number; the
kernels raise the named errors.  Each stage owns the loop over its rows: the
velocity stage forms d_i = a_i r_i, its weights and the five sums in one loop
per weight rule, and the ``propagated`` acceleration stage forms the sums of
its centred columns in the loop that centres them; the other solves hand
their lists to ``_kernels.normal_sums``.  Per-row data travels as lists of
floats; arrays appear only where a public function takes one or a caller
reads one: the result objects keep their estimates as floats and their
pseudo-measurements as packed float64 bytes, and make each array on first read.

Stage 3 is defined on the stage-2 solve that it follows, and there is one
route to it.  The private velocity stage returns its estimate with the
weights and Gram sums of its solve, and every acceleration stage takes them:
the LS stage, and the WLS stage under ``uniform`` and ``inverse_range``,
solve with that Gram, forming only the right-hand-side sums, and the
``propagated`` error model needs no second pass over the rows.  The pipeline
reads p_hat once, as floats, and hands each velocity solve's weights and Gram
sums to its acceleration stage.  ``estimate_velocity`` and
``estimate_acceleration`` are the public wrappers, which check and convert
the array arguments; ``estimate_acceleration`` runs the velocity stage with
its rule at p_hat for those sums, as the pipeline does, so it fails where
that stage fails.
"""

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .errors import SingularGeometry, TooFewSensors
from .model import (MeasurementSet, SensorArray, _by_constructor, _finite, _frozen, _packer,
                    _real, as_vec2)

WEIGHT_MODES = ("uniform", "inverse_range", "propagated")


@dataclass(frozen=True)
class WeightRule:
    """Stage weighting rule; r is the range implied by the stage-1 position.

    ``uniform`` reduces every stage to plain LS.  ``inverse_range`` (the
    default here, the paper's WLS) weights each row of both stages by 1/r.
    ``propagated`` weights velocity rows by 1/r as well, but solves the
    acceleration stage with the first-order covariance of its
    pseudo-measurements, propagated through those 1/r velocity weights (see
    ``acceleration_error_model``).  The velocity stage forms each rule's
    weights in its loop, and the acceleration stage takes them from there.

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


class _FirstRead:
    """A read-only float64 array attribute, made by ``make(instance)`` on first
    read and stored in the instance dict under the attribute's name, which
    later reads find before this non-data descriptor: each read returns the
    same array.  Unlike ``functools.cached_property`` it takes no lock, which
    that property does on Python 3.11 and not on 3.12."""

    def __init__(self, make):
        self.make = make

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        # setdefault: threads that race on a first read all get the stored array
        return instance.__dict__.setdefault(self.name, self.make(instance))


# The result classes write each field once into the instance dict, key by key
# as MeasurementSet._fill does: the generated frozen __init__ makes one
# object.__setattr__ call per field, and the pipeline builds six instances.
@dataclass(frozen=True, init=False)
class PositionSolution:
    """The stage-1 estimate.  It keeps (x, y) as the floats ``_xy``;
    ``position`` is their read-only array, made on first read."""

    _xy: tuple              # m
    theta3: float           # m^2, diagnostic: the x^2+y^2 component of theta
    residual_norm: float
    gram_condition: float
    position = _FirstRead(lambda s: _frozen(s._xy))
    __reduce__ = _by_constructor

    def __init__(self, _xy, theta3, residual_norm, gram_condition):
        d = self.__dict__
        d["_xy"] = _xy
        d["theta3"] = theta3
        d["residual_norm"] = residual_norm
        d["gram_condition"] = gram_condition


@dataclass(frozen=True, init=False)
class KinematicEstimate:
    """A velocity or acceleration estimate, or a ``solve_*_stage`` solution.
    It keeps its two components as the floats ``_xy`` and its
    pseudo-measurements (the right-hand side) as the packed float64 bytes
    ``_k``; ``value`` and ``pseudo_measurements`` are their read-only arrays,
    made on first read."""

    _xy: tuple              # m/s for velocity, m/s^2 for acceleration
    method: str             # "LS" | "WLS"
    gram_condition: float
    _k: bytes = field(repr=False)
    value = _FirstRead(lambda s: _frozen(s._xy))
    pseudo_measurements = _FirstRead(lambda s: np.frombuffer(s._k))
    __reduce__ = _by_constructor

    def __init__(self, _xy, method, gram_condition, _k):
        d = self.__dict__
        d["_xy"] = _xy
        d["method"] = method
        d["gram_condition"] = gram_condition
        d["_k"] = _k


@dataclass(frozen=True, init=False)
class EstimationResult:
    """Full pipeline output: position plus LS and WLS velocity/acceleration."""

    position: PositionSolution
    velocity_ls: KinematicEstimate
    velocity_wls: KinematicEstimate
    accel_ls: KinematicEstimate
    accel_wls: KinematicEstimate

    def __init__(self, position, velocity_ls, velocity_wls, accel_ls, accel_wls):
        d = self.__dict__
        d["position"] = position
        d["velocity_ls"] = velocity_ls
        d["velocity_wls"] = velocity_wls
        d["accel_ls"] = accel_ls
        d["accel_wls"] = accel_wls


# the five estimates' names, in the order that every output lists them
METHODS = tuple(f.name for f in fields(EstimationResult))


def _check_lengths(measurements: MeasurementSet, sensors: SensorArray):
    # the float lists that the stages read, whose lengths equal the arrays'
    if len(measurements._ranges) != len(sensors.xs):
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
        sensors.xs, sensors.ys, measurements._ranges)
    # the kernels return finite floats or raise
    return PositionSolution((x, y), theta3, resid, cond)


def _solve2(bx, by, rhs, weights, method, gram) -> KinematicEstimate:
    x0, x1, cond = _kernels.wls_solve2(*_kernels.normal_sums(bx, by, rhs, weights, gram))
    return KinematicEstimate((x0, x1), method, cond, _packer(len(rhs))(*rhs))


def _stage_columns(B, rhs, per_row, name):
    B = _finite(B, "B", (None, 2))
    rhs, per_row = _finite(rhs, "rhs", (len(B),)), _finite(per_row, name, (len(B),))
    return B[:, 0].tolist(), B[:, 1].tolist(), rhs.tolist(), per_row.tolist()


def solve_linear_stage(B, rhs, weights) -> KinematicEstimate:
    """Exact minimizer of sum_i W_i (rhs_i - B_i . x)^2 for a 2D unknown.

    Labelled "LS" when every weight is equal, "WLS" otherwise.  Raises
    ValueError unless B, rhs and weights are finite and every weight is
    positive, and SingularGeometry when the weighted Gram matrix is singular
    or its condition number exceeds the kernels' cap (all rows nearly
    parallel).
    """
    bx, by, rhs, weights = _stage_columns(B, rhs, weights, "weights")
    lowest, highest = min(weights), max(weights)
    if lowest <= 0.0:
        raise ValueError("weights must be positive")
    method = "LS" if lowest == highest else "WLS"
    # as in _shared_error_solve: an exact power-of-two scale that brings the
    # largest weight into [0.5, 1) keeps the Gram products within range
    e = math.frexp(highest)[1]
    return _solve2(bx, by, rhs, [math.ldexp(w, -e) for w in weights], method, None)


def solve_shared_error_stage(B, rhs, variances, shared_variance: float) -> KinematicEstimate:
    """Generalized LS for rhs = B x + e with Cov(e) = diag(variances) + s2 * 1 1^T.

    This equals weighted LS with weights 1/variances on the augmented unknown
    (x, c), rows [B_i, 1], plus one prior row c = 0 of weight 1/s2.  It is
    solved in closed form with one 2-unknown WLS: with w = 1/variances,
    S = sum(w) and lam = 1 - 1/sqrt(1 + s2 * S), subtracting lam times the
    w-weighted mean from each column of B and from rhs leaves a WLS problem
    with weights w whose normal equations are those of the GLS problem.
    lam = 0 is plain inverse-variance WLS; lam -> 1 leaves c unconstrained.
    Each column is centred relative to its row of smallest variance, so that
    no row's centred value is the difference of two rounded near-equal terms.

    Zero variances: a row whose variance is 0 while others are positive gets
    the smallest positive variance (a first-order variance of 0 does not make
    a row exact, and a finite weight keeps the Gram matrix conditioned by the
    other rows).  If every variance is 0 the rows carry nothing to weight by:
    the solve falls back to uniform weights and s2 = 0, i.e. plain LS.
    Raises SingularGeometry like ``solve_linear_stage``.
    """
    bx, by, rhs, variances = _stage_columns(B, rhs, variances, "variances")
    s2 = _real(shared_variance, "shared_variance")
    # _stage_columns has checked the variances finite
    if not (min(variances) >= 0.0 and 0.0 <= s2 < math.inf):
        raise ValueError("variances and shared_variance must be finite and >= 0")
    return _shared_error_solve(bx, by, rhs, variances, s2)


def _shared_error_solve(bx, by, rhs, var, s2) -> KinematicEstimate:
    """``solve_shared_error_stage`` on the columns of B, as lists, for finite
    variances and shared variance >= 0 (``acceleration_error_model`` returns
    no others)."""
    lowest = min(var)
    if lowest == 0.0:
        positive = [d for d in var if d > 0.0]
        if positive:
            lowest = min(positive)
            var = [max(d, lowest) for d in var]
        else:
            var = [1.0] * len(var)
            lowest, s2 = 1.0, 0.0
    # Scaling the covariance leaves the GLS solution unchanged, and scaling by
    # a power of two is exact: bring the smallest variance into [1, 2) so that
    # the weights (at most 1) and their Gram products stay within range.  A
    # value 2^1024 times the smallest variance or more would scale past the
    # float range: taken as inf, it gives its row weight 0, and for s2 it
    # gives lam = 1, the limit in which the shared offset is unconstrained.
    # Below that, a weight 2^e / d is 1 / (d * 2^-e) rounded once: 2^e (from
    # 2^-1074 up) and d * 2^-e are exact, so both quotients are of one real.
    e = math.frexp(lowest)[1] - 1
    scale = math.ldexp(1.0, e)
    top = math.ldexp(1.0, 1024 + e) if e < 0 else math.inf
    s2 = math.ldexp(s2, -e) if s2 < top else math.inf
    # x_i - lam * mean_w(x) would cancel in the row of the largest weight,
    # which fills the rounded mean when its variance is far below the others';
    # the same value centred on that row j, (x_i - x_j) + ((1 - lam) x_j -
    # lam * mean_w(x - x_j)), forms no such difference
    j = var.index(lowest)
    rx, ry, rk = bx[j], by[j], rhs[j]
    w = []
    total = ax = ay = ak = 0.0
    for d, x, y, k in zip(var, bx, by, rhs):
        wi = scale / d if d < top else 0.0
        w.append(wi)
        total += wi
        ax += wi * (x - rx)
        ay += wi * (y - ry)
        ak += wi * (k - rk)
    keep = 1.0 / math.sqrt(1.0 + s2 * total)          # 1 - lam
    if keep == 1.0:
        return _solve2(bx, by, rhs, w, "WLS", None)
    shrink = (1.0 - keep) / total
    ox, oy, ok = keep * rx - shrink * ax, keep * ry - shrink * ay, keep * rk - shrink * ak
    # the normal-equation sums of the centred columns, formed as they are
    # centred, by the operations of ``_kernels.normal_sums``
    g00 = g01 = g11 = h0 = h1 = 0.0
    for wi, x, y, k in zip(w, bx, by, rhs):
        cx = (x - rx) + ox
        cy = (y - ry) + oy
        ck = (k - rk) + ok
        wx = wi * cx
        wy = wi * cy
        g00 += wx * cx
        g01 += wx * cy
        g11 += wy * cy
        h0 += wx * ck
        h1 += wy * ck
    x0, x1, cond = _kernels.wls_solve2(g00, g01, g11, h0, h1)
    return KinematicEstimate((x0, x1), "WLS", cond, _packer(len(rhs))(*rhs))


def estimate_velocity(measurements: MeasurementSet, sensors: SensorArray, p_hat,
                      weight_rule: WeightRule = WeightRule()) -> KinematicEstimate:
    """Velocity estimate from range rates, given the stage-1 position estimate.

    Solves rows (p_hat - p_i) against d_i = a_i * r_i, with r_i the range
    implied by p_hat, under weights 1 (``uniform``) or 1/r_i (the other
    rules).  Raises ZeroRange when p_hat coincides with a sensor.
    """
    _check_lengths(measurements, sensors)
    px, py = as_vec2(p_hat, "p_hat").tolist()
    return _velocity(measurements, sensors, px, py, weight_rule)[0]


def _velocity(measurements, sensors, px, py, weight_rule):
    """The velocity stage at p_hat = (px, py), as (estimate, weights,
    (g00, g01, g11)): the weights and Gram sums of its solve, which depend on
    the rows alone and which every acceleration stage takes.  One loop per
    rule forms d_i = a_i r_i, the weights (None, ``normal_sums``' unit
    weights, under ``uniform``; 1/r_i otherwise) and the sums of
    ``_kernels.normal_sums``, bit for bit."""
    bx, by, rhat = _kernels.system_rows(sensors.xs, sensors.ys, px, py)
    d = []
    g00 = g01 = g11 = h0 = h1 = 0.0
    if weight_rule.mode == "uniform":
        # weight 1.0: 1.0 * x is x exactly, so the products leave it out
        for x, y, r, a in zip(bx, by, rhat, measurements._range_rates):
            di = a * r
            d.append(di)
            g00 += x * x
            g01 += x * y
            g11 += y * y
            h0 += x * di
            h1 += y * di
        w = None
        method = "LS"
    else:
        w = []
        for x, y, r, a in zip(bx, by, rhat, measurements._range_rates):
            di = a * r
            wi = 1.0 / r
            d.append(di)
            w.append(wi)
            wx = wi * x
            wy = wi * y
            g00 += wx * x
            g01 += wx * y
            g11 += wy * y
            h0 += wx * di
            h1 += wy * di
        method = "WLS"
    x0, x1, cond = _kernels.wls_solve2(g00, g01, g11, h0, h1)
    estimate = KinematicEstimate((x0, x1), method, cond, _packer(len(d))(*d))
    return estimate, w, (g00, g01, g11)


def _pseudo_measurements(measurements, sensors, px, py, v0, v1) -> list:
    """Transformed drr measurements k_i = b_i * r_i - ||v_hat||^2 + a_i^2, with r_i
    the range implied by p_hat, from p_hat and v_hat as the floats px, py and v0, v1.

    With exact p_hat, v_hat and noiseless measurements, k_i equals
    a . (p_hat - p_i) exactly.
    """
    _, _, rhat = _kernels.system_rows(sensors.xs, sensors.ys, px, py)
    v2 = v0 * v0 + v1 * v1
    return [b * r - v2 + a * a for b, r, a in
            zip(measurements._drrs, rhat, measurements._range_rates)]


def acceleration_error_model(measurements: MeasurementSet, ranges, bx, by, velocity_weights,
                             v0, v1, gram):
    """First-order error model of the pseudo-measurements k_i, as (D, s2), D a list.

    ``ranges`` are the r_i that multiply b_i in k_i, ``bx`` and ``by`` the
    columns of the stage rows (p_hat - p_i), and ``velocity_weights`` the
    weights of the velocity solve that gave the floats v0, v1, all lists.
    ``gram`` is that solve's (g00, g01, g11), as ``_kernels.normal_sums``
    returns them.  With s_r, s_a, s_b from ``measurements.noise``, the
    per-row variances are
    D_i = r_i^2 s_b^2 + 4 a_i^2 s_a^2 + b_i^2 s_r^2, and s2 = 4 v' Cov(v) v is
    the variance of the offset -2 v . dv that every row shares, where
    Cov(v) = G^-1 M G^-1 propagates the per-row variance r_i^2 s_a^2 +
    a_i^2 s_r^2 of d_i = a_i r_i through the velocity solve
    (G = sum w_i B_i B_i', M = sum w_i^2 var(d_i) B_i B_i').
    Raises SingularGeometry when G is singular, or when the model is not
    finite: a measurement too large to square (a drr near 1e154, from a
    target within about 1e-150 m of a sensor) leaves the rows unweightable.
    """
    noise = measurements.noise
    # s * s, not s ** 2: libm's pow need not round a square correctly
    var_r = noise.sigma_range * noise.sigma_range
    var_a = noise.sigma_range_rate * noise.sigma_range_rate
    var_b = noise.sigma_drr * noise.sigma_drr
    g00, g01, g11 = gram
    variances = []
    m00 = m01 = m11 = 0.0
    # Python evaluates m * x * y as (m * x) * y, so the shared factors rr and mx
    # leave every sum bit for bit as it was
    for r, a, b, w, x, y in zip(ranges, measurements._range_rates, measurements._drrs,
                                velocity_weights, bx, by, strict=True):
        rr = r * r
        variances.append(rr * var_b + 4.0 * a * a * var_a + b * b * var_r)
        m = w * w * (rr * var_a + a * a * var_r)
        mx = m * x
        m00 += mx * x
        m01 += mx * y
        m11 += m * y * y
    det = g00 * g11 - g01 * g01
    if not det > 0.0:
        raise SingularGeometry("velocity Gram matrix is singular")
    u0 = (g11 * v0 - g01 * v1) / det      # u = G^-1 v, so v' Cov(v) v = u' M u
    u1 = (g00 * v1 - g01 * v0) / det
    shared = 4.0 * (u0 * u0 * m00 + 2.0 * u0 * u1 * m01 + u1 * u1 * m11)
    if not (all(map(math.isfinite, variances)) and math.isfinite(shared)):
        raise SingularGeometry("stage-3 error model overflows (a measurement too large to square)")
    # M is positive semidefinite; rounding may still take u' M u a hair below 0
    return variances, max(0.0, shared)


def estimate_acceleration(measurements: MeasurementSet, sensors: SensorArray, p_hat, v_hat,
                          weight_rule: WeightRule = WeightRule()) -> KinematicEstimate:
    """Acceleration estimate from drr measurements, given stage-1/2 estimates.

    Solves rows (p_hat - p_i) against the pseudo-measurements k_i, which the
    estimate keeps as ``.pseudo_measurements``, with the weights and Gram sums of
    the velocity stage with the same rule at p_hat, which it runs for them,
    as the pipeline does; under the ``propagated`` rule it solves the GLS
    problem of ``acceleration_error_model`` instead, taking ``v_hat`` to come
    from that velocity stage.  Raises what that velocity stage raises.
    """
    _check_lengths(measurements, sensors)
    v0, v1 = as_vec2(v_hat, "v_hat").tolist()
    px, py = as_vec2(p_hat, "p_hat").tolist()
    _, w, gram = _velocity(measurements, sensors, px, py, weight_rule)
    return _acceleration(measurements, sensors, px, py, v0, v1, weight_rule, w, gram)


def _acceleration(measurements, sensors, px, py, v0, v1, weight_rule, w, gram):
    """The acceleration stage at p_hat = (px, py) and v_hat = (v0, v1), given
    the weights and Gram sums of the velocity solve with this rule, as
    ``_velocity`` returns them.  The rows and weights are the velocity
    solve's, so outside ``propagated`` the solve takes that Gram."""
    k = _pseudo_measurements(measurements, sensors, px, py, v0, v1)
    bx, by, rhat = _kernels.system_rows(sensors.xs, sensors.ys, px, py)
    if weight_rule.mode == "propagated":
        variances, shared = acceleration_error_model(measurements, rhat, bx, by, w, v0, v1, gram)
        return _shared_error_solve(bx, by, k, variances, shared)
    method = "LS" if weight_rule.mode == "uniform" else "WLS"
    return _solve2(bx, by, k, w, method, gram)


def _timed_position(measurements: MeasurementSet, sensors: SensorArray):
    """The position stage, as (PositionSolution, its wall seconds): the half
    of the pipeline that reads only the ranges and the sensors."""
    clock = time.perf_counter
    t0 = clock()
    pos = estimate_position(measurements, sensors)
    return pos, clock() - t0


def _timed_kinematics(measurements: MeasurementSet, sensors: SensorArray, solved,
                      weight_rule: WeightRule):
    """The four kinematic stages in order after ``solved``, a ``_timed_position``
    result: its ``estimate_position`` checked that the measurements and the
    sensors have equal lengths, and the caller passes the same ones.  Returns
    (EstimationResult, a tuple of its stages' wall seconds in field order,
    the position's taken from ``solved``).  The position is read once, as
    floats, and each acceleration stage takes the components, weights and Gram
    sums of its velocity solve from the private stage functions;
    ``estimate_velocity`` and ``estimate_acceleration`` do not run.  No
    estimate array is made: the stages read and return floats."""
    pos, position_time = solved
    px, py = pos._xy        # finite floats: the kernels return no others
    clock = time.perf_counter
    t1 = clock()
    v_ls, w_ls, gram_ls = _velocity(measurements, sensors, px, py, UNIFORM)
    t2 = clock()
    v_wls, w, gram = _velocity(measurements, sensors, px, py, weight_rule)
    t3 = clock()
    a_ls = _acceleration(measurements, sensors, px, py, *v_ls._xy, UNIFORM, w_ls, gram_ls)
    t4 = clock()
    a_wls = _acceleration(measurements, sensors, px, py, *v_wls._xy, weight_rule, w, gram)
    t5 = clock()
    times = (position_time, t2 - t1, t3 - t2, t4 - t3, t5 - t4)
    return EstimationResult(pos, v_ls, v_wls, a_ls, a_wls), times


def estimate_all(measurements: MeasurementSet, sensors: SensorArray,
                 weight_rule: WeightRule = WeightRule()) -> EstimationResult:
    """Run the full sequential pipeline: position, then LS and WLS velocity and
    acceleration.  Each WLS acceleration consumes the matching WLS velocity."""
    solved = _timed_position(measurements, sensors)
    return _timed_kinematics(measurements, sensors, solved, weight_rule)[0]
