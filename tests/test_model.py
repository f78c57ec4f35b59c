import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinloc.errors import ZeroRange
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState,
                          propagate, range_accel, range_rate, range_to,
                          synthesize_measurements, true_measurements)
from kinloc.oracle import FdConfig, fd_range_accel, fd_range_rate


class TestRange:
    def test_pythagorean_triple(self):
        assert range_to((3.0, 4.0), (0.0, 0.0)) == 5.0

    def test_coincident_points(self):
        assert range_to((7.0, -2.0), (7.0, -2.0)) == 0.0

    def test_against_scalar_hypot(self):
        # independent scalar route for the same distance
        assert range_to((30.0, 40.0), (100.0, 0.0)) == pytest.approx(
            math.hypot(70.0, 40.0), abs=1e-12)
        assert range_to((30.0, 40.0), (100.0, 0.0)) == pytest.approx(
            80.6225774829855, abs=1e-12)


class TestRangeRate:
    def test_radial_motion_gives_speed(self):
        t = TargetState((3.0, 4.0), (6.0, 8.0))
        assert range_rate(t, (0.0, 0.0)) == pytest.approx(10.0, abs=1e-12)

    def test_tangential_motion_gives_zero(self):
        t = TargetState((3.0, 4.0), (-4.0, 3.0))
        assert range_rate(t, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_oblique_motion_vs_finite_difference(self):
        t = TargetState((3.0, 4.0), (1.0, 1.0))
        got = range_rate(t, (0.0, 0.0))
        assert got == pytest.approx(1.4, abs=1e-9)
        fd = fd_range_rate(t, (0.0, 0.0), FdConfig(step=1e-5))
        assert got == pytest.approx(fd, abs=1e-8)

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            range_rate(TargetState((1.0, 2.0), (3.0, 4.0)), (1.0, 2.0))


class TestRangeAccel:
    def test_circular_motion_keeps_range(self):
        # speed^2 / radius = 4/5 centripetal: range stays constant
        t = TargetState((5.0, 0.0), (0.0, 2.0), (-0.8, 0.0))
        assert range_accel(t, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_radial_motion_gives_accel_magnitude(self):
        t = TargetState((5.0, 0.0), (3.0, 0.0), (1.0, 0.0))
        assert range_accel(t, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_coasting_vs_finite_difference(self):
        t = TargetState((5.0, 0.0), (0.0, 2.0))
        got = range_accel(t, (0.0, 0.0))
        assert got == pytest.approx(0.8, abs=1e-9)
        fd = fd_range_accel(t, (0.0, 0.0), FdConfig(step=1e-4))
        assert got == pytest.approx(fd, abs=1e-6)

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            range_accel(TargetState((0.0, 0.0), (1.0, 1.0)), (0.0, 0.0))


class TestPropagate:
    def test_uniform_motion(self):
        out = propagate(TargetState((0.0, 0.0), (1.0, 0.0)), 2.0)
        np.testing.assert_allclose(out.position, [2.0, 0.0])

    def test_constant_acceleration(self):
        out = propagate(TargetState((0.0, 0.0), (0.0, 0.0), (2.0, 0.0)), 3.0)
        np.testing.assert_allclose(out.position, [9.0, 0.0])
        np.testing.assert_allclose(out.velocity, [6.0, 0.0])

    def test_zero_dt_is_identity(self):
        t = TargetState((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))
        out = propagate(t, 0.0)
        np.testing.assert_array_equal(out.position, t.position)
        np.testing.assert_array_equal(out.velocity, t.velocity)
        np.testing.assert_array_equal(out.acceleration, t.acceleration)


class TestSynthesize:
    def test_zero_noise_returns_truth(self, sensors8, rng):
        t = TargetState((30.0, 40.0), (5.0, -3.0), (1.0, 2.0))
        ms = synthesize_measurements(t, sensors8, NoiseSpec(0.0, 0.0, 0.0), rng)
        r, a, b = true_measurements(t, sensors8)
        np.testing.assert_array_equal(ms.ranges, r)
        np.testing.assert_array_equal(ms.range_rates, a)
        np.testing.assert_array_equal(ms.drrs, b)

    def test_fixed_seed_is_bit_identical(self, sensors8):
        t = TargetState((30.0, 40.0), (5.0, -3.0))
        first = synthesize_measurements(t, sensors8, NoiseSpec(), 42)
        second = synthesize_measurements(t, sensors8, NoiseSpec(), 42)
        np.testing.assert_array_equal(first.ranges, second.ranges)
        np.testing.assert_array_equal(first.range_rates, second.range_rates)
        np.testing.assert_array_equal(first.drrs, second.drrs)

    def test_noise_std_matches_spec(self, sensors8):
        # law-of-large-numbers check on the range-noise channel
        t = TargetState((30.0, 40.0), (5.0, -3.0))
        r_true = true_measurements(t, sensors8)[0]
        gen = np.random.default_rng(99)
        draws = 12500      # x8 sensors = 1e5 noise samples
        resid = np.empty((draws, len(sensors8)))
        for k in range(draws):
            ms = synthesize_measurements(t, sensors8, NoiseSpec(1.0, 1.0, 1.0), gen)
            resid[k] = ms.ranges - r_true
        std = resid.ravel().std(ddof=1)
        assert 0.99 <= std <= 1.01

    def test_target_on_sensor_raises(self, sensors8, rng):
        with pytest.raises(ZeroRange):
            synthesize_measurements(TargetState((0.0, 0.0), (1.0, 1.0)),
                                    sensors8, NoiseSpec(), rng)


class TestValidation:
    def test_nonfinite_position_rejected(self):
        with pytest.raises(ValueError):
            TargetState((np.nan, 0.0), (0.0, 0.0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_range=-1.0)

    def test_sigma_with_overflowing_square_rejected(self):
        # the propagated weights use sigma^2; 1e200 ** 2 is not a finite float
        for name in ("sigma_range", "sigma_range_rate", "sigma_drr"):
            with pytest.raises(ValueError):
                NoiseSpec(**{name: 1e200})
        assert NoiseSpec(sigma_drr=1e150).sigma_drr == 1e150

    def test_measurement_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet([1.0, 2.0], [0.0], [0.0, 0.0], NoiseSpec())

    def test_sensor_array_immutable(self, sensors8):
        with pytest.raises(ValueError):
            sensors8.positions[0, 0] = 99.0


# hypothesis strategies for well-separated geometry: keep the target at least
# 1e-3 away from the sensor so derivative magnitudes stay bounded
_coord = st.floats(min_value=-1e3, max_value=1e3)
_vec = st.tuples(_coord, _coord)


def _separated(target_pos, sensor_pos):
    return math.hypot(target_pos[0] - sensor_pos[0],
                      target_pos[1] - sensor_pos[1]) > 1e-3


@settings(max_examples=200, deadline=None)
@given(p=_vec, v=_vec, a=_vec, s=_vec, shift=_vec)
def test_translation_invariance(p, v, a, s, shift):
    if not _separated(p, s):
        return
    t = TargetState(p, v, a)
    t2 = TargetState((p[0] + shift[0], p[1] + shift[1]), v, a)
    s2 = (s[0] + shift[0], s[1] + shift[1])
    assert range_to(t2.position, s2) == pytest.approx(range_to(t.position, s),
                                                      rel=1e-9, abs=1e-9)
    assert range_rate(t2, s2) == pytest.approx(range_rate(t, s), rel=1e-6, abs=1e-6)
    assert range_accel(t2, s2) == pytest.approx(range_accel(t, s), rel=1e-6, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(p=_vec, v=_vec, a=_vec, s=_vec,
       angle=st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_invariance(p, v, a, s, angle):
    if not _separated(p, s):
        return
    c, sn = math.cos(angle), math.sin(angle)

    def rot(u):
        return (c * u[0] - sn * u[1], sn * u[0] + c * u[1])

    t = TargetState(p, v, a)
    t2 = TargetState(rot(p), rot(v), rot(a))
    s2 = rot(s)
    assert range_to(t2.position, s2) == pytest.approx(range_to(t.position, s),
                                                      rel=1e-9, abs=1e-9)
    assert range_rate(t2, s2) == pytest.approx(range_rate(t, s), rel=1e-6, abs=1e-6)
    assert range_accel(t2, s2) == pytest.approx(range_accel(t, s), rel=1e-6, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(p=_vec, v=_vec, s=_vec)
def test_range_rate_bounded_by_speed(p, v, s):
    if not _separated(p, s):
        return
    t = TargetState(p, v)
    assert abs(range_rate(t, s)) <= math.hypot(*v) + 1e-9
