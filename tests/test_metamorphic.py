"""Metamorphic properties of ``estimate_all``: checks that rest on no golden file.

Every stage is homogeneous in its inputs.  Scaling lengths by L scales
positions, velocities and accelerations by L; scaling the time unit so that
rates grow by T scales velocities by T and accelerations by T^2.  The weight
rules only shift their weights and variances by a power of two, which
``solve_linear_stage`` and the shared-error solve undo exactly.  With L and T
powers of two every product, quotient and square root scales exactly, so the
estimates of the scaled problem must equal the original estimates scaled, bit
for bit, under every weight rule; a problem that raises a named error must
raise the same one after scaling.

Coordinates, sigmas and noise draws are kept either 0 or well away from the
subnormal range, so that no intermediate of either problem underflows.

A rigid motion of the sensors (a rotation R and a shift t) leaves every
range, rate and drr as it is, so the estimates must move with the scene:
position to R p + t, velocity and acceleration to R v and R a.  Permuting the
sensors together with their measurements must leave the estimates as they
are.  Neither holds bit for bit (the kernels sum in index order and R is
rounded), so these relations allow a rounding error of the first-order size:
the unit roundoff times the condition numbers of the stages on the output's
chain, times the stage's natural scale, times how far the coordinates sit
from the layout's thinnest spread (see ``assert_moves``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kinloc.errors import (DegenerateGeometry, KinlocError, SingularGeometry, TooFewSensors,
                           ZeroRange)
from kinloc import _kernels
from kinloc.estim import (PROPAGATED, UNIFORM, WeightRule, _pseudo_measurements,
                          acceleration_error_model, estimate_all)
from kinloc.model import MeasurementSet, NoiseSpec, SensorArray, TargetState, true_measurements

RULES = (UNIFORM, WeightRule(), PROPAGATED)


def _no_tiny(x: float) -> float:
    return x if abs(x) >= 1e-6 else 0.0


def _floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(_no_tiny)


_coord = _floats(-200.0, 200.0)
_sigma = _floats(0.0, 5.0)
_eps = _floats(-3.0, 3.0)


@st.composite
def problems(draw):
    """(sensor positions, (ranges, rates, drrs), sigmas): a target's exact
    measurements plus scaled noise draws, on 3 to 10 sensors."""
    n = draw(st.integers(min_value=3, max_value=10))
    positions = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=n, max_size=n)))
    truth = TargetState(draw(st.tuples(_floats(-50.0, 150.0), _floats(-50.0, 150.0))),
                        draw(st.tuples(_floats(-20.0, 20.0), _floats(-20.0, 20.0))),
                        draw(st.tuples(_floats(-10.0, 10.0), _floats(-10.0, 10.0))))
    try:
        exact = true_measurements(truth, SensorArray(positions))
    except ZeroRange:
        assume(False)
    sigmas = draw(st.tuples(_sigma, _sigma, _sigma))
    measured = tuple(q + s * np.array(draw(st.lists(_eps, min_size=n, max_size=n)))
                     for q, s in zip(exact, sigmas))
    return positions, measured, sigmas


# sensors whose distances from the origin are exact integers: a noiseless
# target at the origin puts p_hat exactly on the sensor there
_PYTHAGOREAN = ((3.0, 4.0), (-5.0, 12.0), (8.0, -6.0), (-12.0, -5.0), (0.0, 7.0), (9.0, 0.0))


_RAISES = {"too_few": TooFewSensors, "collinear": DegenerateGeometry, "on_sensor": ZeroRange,
           "parallel_rows": SingularGeometry}


@st.composite
def degenerate_problems(draw):
    """(the named error, a problem that raises it under every weight rule)."""
    kind = draw(st.sampled_from(tuple(_RAISES)))
    if kind == "too_few":
        n = draw(st.integers(min_value=1, max_value=2))
        positions = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=n, max_size=n)))
    elif kind == "collinear":
        # all sensors on one axis: a zero column in the trilateration system
        n = draw(st.integers(min_value=3, max_value=8))
        along = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
        positions = np.column_stack((along, np.zeros(n)))
        if draw(st.booleans()):
            positions = positions[:, ::-1]
    elif kind == "on_sensor":
        others = draw(st.lists(st.sampled_from(_PYTHAGOREAN), min_size=2, max_size=6,
                               unique=True))
        positions = np.array([(0.0, 0.0), *others])
        n = len(positions)
    else:
        # sensors on both sides of the origin on the x axis, one 2^-45..2^-60
        # off it, and a noiseless target at the origin: trilateration puts
        # p_hat exactly there, and the velocity rows p_hat - p_i are all but
        # parallel (Gram condition above 2^46 under every weight rule)
        along = draw(st.lists(_floats(1.0, 200.0), min_size=2, max_size=7))
        along[0] = -along[0]
        off = math.ldexp(draw(st.sampled_from((-1.0, 1.0))), -draw(st.integers(45, 60)))
        positions = np.array([*((x, 0.0) for x in along), (0.0, off)])
        n = len(positions)
    if kind in ("on_sensor", "parallel_rows"):
        ranges = np.hypot(positions[:, 0], positions[:, 1])
    else:
        ranges = np.array(draw(st.lists(_floats(0.0, 300.0), min_size=n, max_size=n)))
    rates = np.array(draw(st.lists(_floats(-20.0, 20.0), min_size=n, max_size=n)))
    drrs = np.array(draw(st.lists(_floats(-20.0, 20.0), min_size=n, max_size=n)))
    return _RAISES[kind], (positions, (ranges, rates, drrs),
                           draw(st.tuples(_sigma, _sigma, _sigma)))


def _outcome(problem, length: float, rate: float, rule: WeightRule):
    """estimate_all on the problem with lengths scaled by ``length`` and the
    time unit by 1/``rate``, or the class of the named error it raises."""
    positions, (ranges, rates, drrs), (s_r, s_a, s_b) = problem
    factors = (length, length * rate, length * rate * rate)
    ms = MeasurementSet(ranges * factors[0], rates * factors[1], drrs * factors[2],
                        NoiseSpec(s_r * factors[0], s_a * factors[1], s_b * factors[2]))
    try:
        return estimate_all(ms, SensorArray(positions * length), rule)
    except KinlocError as exc:
        return type(exc)


def assert_scales(problem, length: float, rate: float):
    for rule in RULES:
        base = _outcome(problem, 1.0, 1.0, rule)
        scaled = _outcome(problem, length, rate, rule)
        if isinstance(base, type):
            assert scaled is base, rule
            continue
        assert not isinstance(scaled, type), (rule, scaled)
        velocity, accel = length * rate, length * rate * rate
        for field, factor in (("velocity_ls", velocity), ("velocity_wls", velocity),
                              ("accel_ls", accel), ("accel_wls", accel)):
            want = getattr(base, field).value * factor
            assert getattr(scaled, field).value.tobytes() == want.tobytes(), (rule, field)
        want = base.position.position * length
        assert scaled.position.position.tobytes() == want.tobytes(), rule


@pytest.mark.parametrize("k", (-3, 5))
@settings(max_examples=150, deadline=None)
@given(problem=problems())
def test_length_scale_is_exact(k, problem):
    assert_scales(problem, 2.0 ** k, 1.0)


# glibc 2.36's pow rounds (64 * 4.999999999999999) ** 2 one ulp away from the
# correctly rounded square, so a variance formed as sigma ** 2 does not scale exactly
_POW_SQUARE_OFF = (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                   (np.array([2.0, 1.0, math.sqrt(5.0)]), np.zeros(3), np.array([0.0, 0.0, 5.0])),
                   (0.0, 0.0, 4.999999999999999))


@settings(max_examples=150, deadline=None)
@given(problem=problems())
@example(problem=_POW_SQUARE_OFF)
def test_time_scale_is_exact(problem):
    assert_scales(problem, 1.0, 2.0 ** 3)


@settings(max_examples=100, deadline=None)
@given(case=degenerate_problems(), k=st.sampled_from((-3, 5)))
def test_degenerate_problems_raise_the_same_error_scaled(case, k):
    error, problem = case
    for rule in RULES:
        assert _outcome(problem, 1.0, 1.0, rule) is error
    assert_scales(problem, 2.0 ** k, 1.0)
    assert_scales(problem, 1.0, 2.0 ** 3)


EPS = float(np.finfo(np.float64).eps)
# the largest ratio of error to allowance seen in 6000 random scenes was 14,
# and hypothesis found rigid motions above 0.5 but none above 4 in 500 draws
SLACK = 2.0 ** 7


def _estimates(positions, measured, sigmas, rule):
    try:
        return estimate_all(MeasurementSet(*measured, NoiseSpec(*sigmas)),
                            SensorArray(positions), rule)
    except KinlocError:
        return None


def assert_moves(problem, moved_positions, order, rotation, shift):
    """The estimates of the problem with its sensors at ``moved_positions``
    (row j is sensor ``order[j]`` moved) and its measurements in ``order``
    equal the original estimates moved by x -> rotation @ x (+ shift for the
    position), within the first-order rounding allowance

        SLACK * eps * kappa * spread * scale,

    where kappa is the product of the Gram condition numbers of the stages on
    the output's chain (position; then velocity; then acceleration), the
    larger of the two problems'; spread is the largest coordinate or range
    over the root-mean-square spread of the sensors in their thinnest
    direction (rows and right-hand sides lose digits to it where trilateration
    squares coordinates); and scale is that of the stage's solution: the
    largest coordinate or range for the position, |rhs terms| / |rows| for the
    others, with the rows p_hat - p_i and the right-hand side terms |a_i| r_i
    (velocity) or |b_i| r_i + |v_hat|^2 + a_i^2 (acceleration).

    Scenes with the target closer to a sensor than 1/100 of its distance to
    the farthest one are left out: there the ``propagated`` weights give the
    closest row weight 1/r^2, and its pseudo-measurement
    (|v_hat|^2 - a^2)/r moves by 1/r^2 times the position's rounding error,
    which no stage condition number shows.
    """
    positions, measured, sigmas = problem
    rates, drrs = measured[1:]
    moved_measured = tuple(q[order] for q in measured)
    centred = positions - positions.mean(axis=0)
    thinnest = np.linalg.svd(centred, compute_uv=False)[-1] / math.sqrt(len(positions))
    reach = max(np.abs(positions).max(), np.abs(moved_positions).max(),
                np.abs(measured[0]).max())
    for rule in RULES:
        base = _estimates(positions, measured, sigmas, rule)
        moved = _estimates(moved_positions, moved_measured, sigmas, rule)
        if base is None or moved is None:
            continue    # a named error on one side only: a cap met by rounding
        rows = base.position.position - positions
        r = np.hypot(rows[:, 0], rows[:, 1])
        assume(r.min() >= 0.01 * r.max())
        spread = reach / thinnest

        def cond(field):
            return max(getattr(base, field).gram_condition,
                       getattr(moved, field).gram_condition)

        def check(field, kappa, terms):
            scale = np.linalg.norm(terms) / np.linalg.norm(rows)
            err = np.linalg.norm(getattr(moved, field).value
                                 - rotation @ getattr(base, field).value)
            assert err == 0.0 or err <= SLACK * EPS * kappa * spread * scale, (
                rule, field, err)

        kappa = max(base.position.gram_condition, moved.position.gram_condition)
        want = rotation @ base.position.position + shift
        err = np.linalg.norm(moved.position.position - want)
        assert err <= SLACK * EPS * kappa * spread * reach, (rule, "position", err)
        for method in ("ls", "wls"):
            kappa_v = kappa * cond("velocity_" + method)
            check("velocity_" + method, kappa_v, np.abs(rates) * r)
            v = getattr(base, "velocity_" + method).value
            check("accel_" + method, kappa_v * cond("accel_" + method),
                  np.abs(drrs) * r + v @ v + rates * rates)


@settings(max_examples=150, deadline=None)
@given(problem=problems(), angle=st.floats(0.0, 2.0 * math.pi),
       shift=st.tuples(_floats(-1e3, 1e3), _floats(-1e3, 1e3)))
def test_rigid_motion_moves_the_estimates(problem, angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    rotation, shift = np.array([[c, -s], [s, c]]), np.array(shift)
    positions = problem[0]
    assert_moves(problem, positions @ rotation.T + shift, np.arange(len(positions)),
                 rotation, shift)


@st.composite
def permuted_problems(draw):
    """(a problem of ``problems()``, a permutation of its sensors)."""
    problem = draw(problems())
    return problem, np.array(draw(st.permutations(range(len(problem[0])))))


# Row 5's acceleration variance under ``propagated`` (2.9e-11) is far below
# the others' (12.5 to 1665).  Centring each column on the weighted mean,
# which that row fills, cancelled in that row: accel_wls erred by 1.2e-11 and
# 1.6e-11 in the two sensor orders and moved 2.87e-11 under the permutation.
_DOMINANT_ROW = (
    (np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 30.0], [1.0, 1.0], [95.0, 1e-4],
               [0.0, 70.0]]),
     (np.array([2.0, 2.0, 2.0, 30.066592756745816, 1.4142135623730951, 93.00000000005377,
                70.02856560004639]),
      np.array([4.5, 4.5, 2.25, 0.0, 0.0, 0.0, 4.5]),
      np.array([0.0, 0.0, 0.0, -0.9977851578566089, -0.7071067811865475,
                -1.0752688172036794e-06, -0.9995920864606946])),
     (5.0, 4.5, 0.0)),
    np.array([0, 1, 2, 3, 5, 4, 6]))


@settings(max_examples=150, deadline=None)
@given(case=permuted_problems())
@example(case=_DOMINANT_ROW)
def test_sensor_permutation_leaves_the_estimates(case):
    problem, order = case
    positions = problem[0]
    assert_moves(problem, positions[order], order, np.eye(2), np.zeros(2))


def _exact_gls(bx, by, rhs, variances, shared):
    """The GLS solution for Cov = diag(variances) + shared * 1 1^T, in exact
    rational arithmetic on the float inputs (Sherman-Morrison on the inverse)."""
    w = [1 / Fraction(d) for d in variances]
    cols = [[Fraction(v) for v in col] for col in (bx, by, rhs)]
    c = Fraction(shared) / (1 + Fraction(shared) * sum(w))
    sums = [sum(wi * v for wi, v in zip(w, col)) for col in cols]

    def inner(a, b):
        return sum(wi * u * v for wi, u, v in zip(w, cols[a], cols[b])) - c * sums[a] * sums[b]

    g00, g01, g11, h0, h1 = inner(0, 0), inner(0, 1), inner(1, 1), inner(0, 2), inner(1, 2)
    det = g00 * g11 - g01 * g01
    return np.array([float((g11 * h0 - g01 * h1) / det), float((g00 * h1 - g01 * h0) / det)])


def test_dominant_row_scene_matches_the_exact_gls_solve():
    (positions, measured, sigmas), order = _DOMINANT_ROW
    for perm in (np.arange(len(positions)), order):
        ms = MeasurementSet(*(q[perm] for q in measured), NoiseSpec(*sigmas))
        sensors = SensorArray(positions[perm])
        est = estimate_all(ms, sensors, PROPAGATED)
        # the acceleration stage's system, formed as the pipeline forms it
        (px, py), (v0, v1) = est.position.position.tolist(), est.velocity_wls.value.tolist()
        bx, by, rhat = _kernels.system_rows(sensors.xs, sensors.ys, px, py)
        k = _pseudo_measurements(ms, sensors, px, py, v0, v1)
        w = [1.0 / r for r in rhat]
        variances, shared = acceleration_error_model(
            ms, rhat, bx, by, w, v0, v1, _kernels.normal_sums(bx, by, rhat, w)[:3])
        assert min(variances) < 1e-10 < 10.0 < max(variances)
        want = _exact_gls(bx, by, k, variances, shared)
        got = est.accel_wls.value
        # backward stable: a few rounding errors per input, times the condition
        allowance = 2.0 ** 4 * EPS * est.accel_wls.gram_condition * np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= allowance, (perm, got - want)
