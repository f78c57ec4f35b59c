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
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kinloc.errors import DegenerateGeometry, KinlocError, TooFewSensors, ZeroRange
from kinloc.estim import PROPAGATED, UNIFORM, WeightRule, estimate_all
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


@st.composite
def degenerate_problems(draw):
    """Problems that raise TooFewSensors, DegenerateGeometry or ZeroRange."""
    kind = draw(st.sampled_from(("too_few", "collinear", "on_sensor")))
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
    else:
        others = draw(st.lists(st.sampled_from(_PYTHAGOREAN), min_size=2, max_size=6,
                               unique=True))
        positions = np.array([(0.0, 0.0), *others])
        n = len(positions)
    if kind == "on_sensor":
        ranges = np.hypot(positions[:, 0], positions[:, 1])
    else:
        ranges = np.array(draw(st.lists(_floats(0.0, 300.0), min_size=n, max_size=n)))
    rates = np.array(draw(st.lists(_floats(-20.0, 20.0), min_size=n, max_size=n)))
    drrs = np.array(draw(st.lists(_floats(-20.0, 20.0), min_size=n, max_size=n)))
    return positions, (ranges, rates, drrs), draw(st.tuples(_sigma, _sigma, _sigma))


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
@given(problem=degenerate_problems(), k=st.sampled_from((-3, 5)))
def test_degenerate_problems_raise_the_same_error_scaled(problem, k):
    for rule in RULES:
        assert _outcome(problem, 1.0, 1.0, rule) in (TooFewSensors, DegenerateGeometry,
                                                     ZeroRange)
    assert_scales(problem, 2.0 ** k, 1.0)
    assert_scales(problem, 1.0, 2.0 ** 3)
