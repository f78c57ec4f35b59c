import dataclasses
import itertools
import math

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_cannot_unlock
from kinloc.errors import ZeroRange
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState,
                          as_vec2, propagate, range_accel, range_rate, range_to,
                          _measurements, _noisy, synthesize_measurements,
                          true_measurements)
from kinloc.montecarlo import default_scenario
from kinloc.oracle import fd_range_accel, fd_range_rate


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
        fd = fd_range_rate(t, (0.0, 0.0), step=1e-5)
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
        fd = fd_range_accel(t, (0.0, 0.0), step=1e-4)
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

    @pytest.mark.parametrize("n", [8, 64])
    def test_noise_step_matches_fresh_sigma_column_bitwise(self, n):
        trials = 5
        gen = np.random.default_rng(n)
        draws = np.empty((trials, 6, n))
        draws[:, :3] = gen.uniform(-200.0, 200.0, (trials, 3, n))
        draws[:, 3:] = gen.standard_normal((trials, 3, n))
        # signed zeros in the normals, against nonzero and signed-zero true values
        draws[:, 3:, :4] = (0.0, -0.0, 0.0, -0.0)
        draws[:, :3, 2:4] = (0.0, -0.0)
        sigmas = (0.0, 5e-324, 1e-300, 1.0, 1e150)
        for sr, sa, sb in itertools.product(sigmas, repeat=3):
            noise = NoiseSpec(sr, sa, sb)
            want = draws[:, :3] + np.array(((sr,), (sa,), (sb,))) * draws[:, 3:]
            for _ in range(2):          # a second call gives the same bytes
                noisy = _noisy(draws, noise)
                assert noisy.shape == (trials, 3, n)
                assert noisy.tobytes() == want.tobytes()
                # each trial's set, arrays and float lists alike
                for t in range(trials):
                    ms = _measurements(noisy, t, noise)
                    got = np.stack((ms.ranges, ms.range_rates, ms.drrs))
                    lists = np.array((ms._ranges, ms._range_rates, ms._drrs))
                    assert got.tobytes() == lists.tobytes() == want[t].tobytes()
                    assert ms.noise is noise

    def test_noise_step_names_the_first_non_finite_column(self):
        # one check covers the block, and raises what MeasurementSet raises for
        # the first trial with a non-finite value: its first such column
        draws = np.zeros((3, 6, 4))
        draws[2, 0, 1] = np.inf         # trial 2's ranges
        draws[1, 2, 3] = np.nan         # trial 1's drrs
        draws[1, 1, 0] = -np.inf        # and its range rates
        noise = NoiseSpec()
        for trial, column in ((1, "range_rates"), (2, "ranges")):
            with pytest.raises(ValueError, match=f"^{column} must be finite$"):
                _noisy(draws, noise)
            q, e = draws[trial, :3], draws[trial, 3:]
            with pytest.raises(ValueError, match=f"^{column} must be finite$"):
                MeasurementSet(*(q + e), noise)     # NoiseSpec() has unit sigmas
            draws[trial] = 0.0
        _noisy(draws, noise)

    def test_target_on_sensor_raises(self, sensors8, rng):
        # the noise-free rows are formed before any noise is drawn, so the
        # caller's Generator is left where it was
        state = rng.bit_generator.state
        with pytest.raises(ZeroRange):
            synthesize_measurements(TargetState((0.0, 0.0), (1.0, 1.0)),
                                    sensors8, NoiseSpec(), rng)
        assert rng.bit_generator.state == state


class TestValidation:
    def test_nonfinite_position_rejected(self):
        with pytest.raises(ValueError):
            TargetState((np.nan, 0.0), (0.0, 0.0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_range=-1.0)

    def test_non_numeric_sigma_rejected(self):
        # float() read True as 1.0 and "2" as 2.0
        for bad in (True, np.True_, "2", None):
            with pytest.raises(TypeError):
                NoiseSpec(sigma_range_rate=bad)
        spec = NoiseSpec(2, np.float32(0.5), np.int64(3))
        sigmas = (spec.sigma_range, spec.sigma_range_rate, spec.sigma_drr)
        assert sigmas == (2.0, 0.5, 3.0) and all(type(s) is float for s in sigmas)

    def test_non_numeric_dt_rejected(self):
        # float() read True as a 1 s step and "2" as 2 s
        state = TargetState((0.0, 0.0), (1.0, 0.0))
        for bad in (True, np.True_, "2", None, 1 + 0j):
            message = f"^dt must be a real number, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                propagate(state, bad)
        assert propagate(state, np.float32(0.5)).position.tolist() == [0.5, 0.0]

    def test_sigma_with_overflowing_square_rejected(self):
        # the propagated weights use sigma^2; 1e200 ** 2 is not a finite float
        for name in ("sigma_range", "sigma_range_rate", "sigma_drr"):
            with pytest.raises(ValueError):
                NoiseSpec(**{name: 1e200})
        assert NoiseSpec(sigma_drr=1e150).sigma_drr == 1e150

    @pytest.mark.parametrize("positions, shape", [
        ([], "(0,)"), ([1.0, 2.0, 3.0], "(3,)"), ([[1.0, 2.0, 3.0]], "(1, 3)"),
        (np.zeros((2, 2, 2)), "(2, 2, 2)"), (np.zeros((0, 2)), "(0, 2)"),
    ])
    def test_sensor_shape_error_names_the_input_and_its_shape_as_given(self, positions, shape):
        with pytest.raises(ValueError) as exc:
            SensorArray(positions)
        assert str(exc.value) == f"sensor positions must have shape (N, 2), got {shape}"

    def test_measurement_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet([1.0, 2.0], [0.0], [0.0, 0.0], NoiseSpec())

    @pytest.mark.parametrize("build", [
        lambda v: NoiseSpec(v, 1.0, 1.0),
        lambda v: NoiseSpec(1.0, -v, 1.0),
        lambda v: SensorArray([[v, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        lambda v: MeasurementSet([1.0, v, 1.0], [0.0] * 3, [0.0] * 3, NoiseSpec()),
        lambda v: propagate(TargetState((0.0, 0.0), (1.0, 0.0)), v),
    ], ids=["sigma_range", "negative_sigma_range_rate", "sensors", "ranges", "dt"])
    def test_integer_past_the_float_range_rejected_as_inf(self, build):
        # float(10 ** 400) raises OverflowError: each field takes it as inf
        with pytest.raises(ValueError) as want:
            build(math.inf)
        with pytest.raises(ValueError) as got:
            build(10 ** 400)
        assert str(got.value) == str(want.value)

    def test_vector_past_the_float_range_rejected(self):
        for name, vectors in (("position", ((10 ** 400, 0.0), (0.0, 0.0))),
                              ("velocity", ((0.0, 0.0), (0.0, -10 ** 400)))):
            with pytest.raises(ValueError) as exc:
                TargetState(*vectors)
            assert str(exc.value) == f"{name} must be finite"

    @pytest.mark.parametrize("value, name, message", [
        ([np.nan, 0.0], "position", "position must be finite"),
        ((1.0, np.inf), "velocity", "velocity must be finite"),
    ])
    def test_as_vec2_rejection_messages(self, value, name, message):
        with pytest.raises(ValueError) as exc:
            as_vec2(value, name)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("ranges", [1.0, np.nan], "ranges must be finite"),
        ("drrs", [0.0, -np.inf], "drrs must be finite"),
    ])
    def test_measurement_rejection_messages(self, field, value, message):
        fields = dict(ranges=[1.0, 2.0], range_rates=[0.0, 0.0], drrs=[0.0, 0.0])
        fields[field] = value
        with pytest.raises(ValueError) as exc:
            MeasurementSet(**fields, noise=NoiseSpec())
        assert str(exc.value) == message

    def test_vectors_are_fresh_read_only_copies(self):
        source = np.array([1.0, 2.0])
        locked = source.copy()
        locked.flags.writeable = False
        for value in (source, locked, [1.0, 2.0], (1, 2)):
            vec = as_vec2(value)
            assert vec.dtype == np.float64
            assert_cannot_unlock(vec)
            assert vec is not value and not np.shares_memory(vec, source)
        vec = as_vec2(source)
        source[0] = 99.0
        assert vec.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            vec[1] = 0.0
        # integer, float32 and Fraction entries are real numbers, read as float64
        assert as_vec2((np.float32(0.5), Fraction(1, 4))).tolist() == [0.5, 0.25]
        assert as_vec2(np.array([3, -4])).tolist() == [3.0, -4.0]

        ranges, rates, drrs = np.ones(3), np.zeros(3), np.full(3, 0.5)
        ms = MeasurementSet(ranges, rates, drrs, NoiseSpec())
        ranges[:], rates[:], drrs[:] = 7.0, 7.0, 7.0
        assert ms.ranges.tolist() == [1.0] * 3 and ms.range_rates.tolist() == [0.0] * 3
        assert ms.drrs.tolist() == [0.5] * 3
        for arr in (ms.ranges, ms.range_rates, ms.drrs):
            assert arr.dtype == np.float64
            assert_cannot_unlock(arr)
        assert MeasurementSet(4.0, 0.0, 0.0, NoiseSpec()).ranges.shape == (1,)

    @pytest.mark.parametrize("values", [
        np.arange(-3.0, 9.0)[::2],                                  # strided view
        np.arange(12.0).reshape(6, 2)[:, 0],                        # column of a 2-D array
        np.asfortranarray(np.arange(12.0).reshape(6, 2))[:, 1],
        np.float64(-0.0),                                           # scalars give shape (1,)
        2.5,
        [1.0, -0.0, 3],
        np.array([0.1, -2.5, 1e30, 7.0], dtype=np.float32),
        np.array([3, -1, 2 ** 40], dtype=np.int64),
    ], ids=["strided", "column", "fortran_column", "numpy_scalar", "float", "list",
            "float32", "int64"])
    def test_measurement_vectors_copy_any_input_once(self, values):
        want = np.array(values, np.float64, ndmin=1)
        ms = MeasurementSet(values, values, values, NoiseSpec())
        for arr, floats in ((ms.ranges, ms._ranges), (ms.range_rates, ms._range_rates),
                            (ms.drrs, ms._drrs)):
            assert arr.dtype == np.float64 and arr.shape == want.shape
            assert arr.tobytes() == want.tobytes()
            assert np.array(floats).tobytes() == want.tobytes()
            assert not (isinstance(values, np.ndarray) and np.shares_memory(arr, values))
            assert_cannot_unlock(arr)

    @pytest.mark.parametrize("positions", [
        np.array([3.0, -4.0]),                                       # one (2,) pair
        np.asfortranarray(np.arange(16.0).reshape(8, 2)),
        np.arange(24.0).reshape(8, 3)[:, 1:],                        # strided columns
        [(0, 0), (100, 100), (-100, 100)],
    ], ids=["pair", "fortran", "strided", "list"])
    def test_sensor_positions_are_a_fresh_frozen_copy(self, positions):
        want = np.atleast_2d(np.array(positions, np.float64))
        sensors = SensorArray(positions)
        assert sensors.positions.shape == want.shape and sensors.positions.dtype == np.float64
        assert sensors.positions.tobytes() == want.tobytes()
        assert (sensors.xs, sensors.ys) == (tuple(want[:, 0].tolist()), tuple(want[:, 1].tolist()))
        if isinstance(positions, np.ndarray):
            assert not np.shares_memory(sensors.positions, positions)
        assert_cannot_unlock(sensors.positions)

    def test_measurement_set_stays_a_frozen_dataclass(self):
        ms = MeasurementSet([3.0, 4.0], [0.5, -0.5], [0.1, 0.2], NoiseSpec())
        assert list(vars(ms)) == ["ranges", "range_rates", "drrs", "noise",
                                  "_ranges", "_range_rates", "_drrs"]
        again = dataclasses.replace(ms, noise=NoiseSpec(2.0))
        assert again._drrs == [0.1, 0.2] and again.noise.sigma_range == 2.0
        assert repr(dataclasses.replace(ms)) == repr(ms)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ms.ranges = np.zeros(2)

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


# a generated == compared the array fields, whose truth value raises ValueError,
# and left the instances unhashable; these classes compare by identity instead
@pytest.mark.parametrize("make", [
    lambda: SensorArray([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]),
    lambda: TargetState((1.0, 2.0), (3.0, 4.0)),
    lambda: MeasurementSet([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], NoiseSpec()),
    lambda: default_scenario(trials=1),
], ids=["SensorArray", "TargetState", "MeasurementSet", "Scenario"])
def test_array_classes_compare_by_identity_and_hash(make):
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b, a}) == 2
