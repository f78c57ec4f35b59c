import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _wls_solve2_loop, assert_cannot_unlock
from kinloc import _kernels as K
from kinloc import estim
from kinloc.errors import (DegenerateGeometry, KinlocError, SingularGeometry,
                           TooFewSensors, ZeroRange)
from kinloc.estim import (PROPAGATED, UNIFORM, WeightRule,
                          acceleration_error_model,
                          acceleration_pseudo_measurements, estimate_acceleration,
                          estimate_all, estimate_position, estimate_velocity,
                          solve_linear_stage, solve_shared_error_stage)
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState,
                          range_to, synthesize_measurements, true_measurements)
from kinloc.montecarlo import DEFAULT_SENSOR_POSITIONS

NOISELESS = NoiseSpec(0.0, 0.0, 0.0)
_ANGLES = np.arange(64) * (2.0 * np.pi / 64)
_RING64 = np.column_stack((100.0 * np.cos(_ANGLES), 100.0 * np.sin(_ANGLES)))


def exact_measurements(target, sensors, noise=NOISELESS):
    r, a, b = true_measurements(target, sensors)
    return MeasurementSet(r, a, b, noise)


class TestEstimatePosition:
    def test_reference_layout_noiseless(self, sensors8):
        ms = exact_measurements(TargetState((30.0, 40.0), (0.0, 0.0)), sensors8)
        sol = estimate_position(ms, sensors8)
        np.testing.assert_allclose(sol.position, [30.0, 40.0], rtol=0, atol=1e-9)
        assert sol.theta3 == pytest.approx(30.0 ** 2 + 40.0 ** 2, rel=1e-9)
        assert sol.residual_norm < 1e-8
        assert sol.gram_condition >= 1.0

    def test_three_sensor_exact_with_back_substitution(self):
        sensors = SensorArray([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)])
        ms = exact_measurements(TargetState((30.0, 40.0), (0.0, 0.0)), sensors)
        sol = estimate_position(ms, sensors)
        np.testing.assert_allclose(sol.position, [30.0, 40.0], rtol=0, atol=1e-9)
        for pos, r_meas in zip(sensors.positions, ms.ranges):
            assert range_to(sol.position, pos) == pytest.approx(r_meas, abs=1e-9)

    def test_collinear_sensors_degenerate(self):
        sensors = SensorArray([(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)])
        ms = exact_measurements(TargetState((30.0, 40.0), (0.0, 0.0)), sensors)
        with pytest.raises(DegenerateGeometry):
            estimate_position(ms, sensors)

    def test_two_sensors_rejected(self):
        sensors = SensorArray([(0.0, 0.0), (100.0, 0.0)])
        ms = exact_measurements(TargetState((30.0, 40.0), (0.0, 0.0)), sensors)
        with pytest.raises(TooFewSensors):
            estimate_position(ms, sensors)


def _stage_weights(sensors, px, py, rule):
    """The row weights that the velocity stage at (px, py) hands to its
    acceleration stage."""
    ms = MeasurementSet([1.0] * len(sensors), [0.0] * len(sensors), [0.0] * len(sensors),
                        NOISELESS)
    return estim._velocity(ms, sensors, px, py, rule)[1]


class TestRowWeights:
    def test_weight_modes(self):
        # ones under uniform, and 1/r of the kernel's ranges under both 1/r rules
        sensors = SensorArray([(5.0, 0.0), (0.0, 0.3), (0.0, 7e5)])
        *_, rhat = K.system_rows(sensors.xs, sensors.ys, 0.0, 0.0)
        assert _stage_weights(sensors, 0.0, 0.0, UNIFORM) == [1.0] * 3
        for rule in (WeightRule(), PROPAGATED):
            assert _stage_weights(sensors, 0.0, 0.0, rule) == [1.0 / r for r in rhat]

    def test_squared_inverse_range_rule_removed(self):
        with pytest.raises(ValueError):
            WeightRule("inverse_range_sq")

    def test_inverse_range_weight(self):
        # a sensor 5 m from p_hat gets weight 1/5 under both 1/r rules
        sensors = SensorArray([(0.0, 0.0), (6.0, 8.0), (3.0, -1.0)])
        for rule in (WeightRule(), PROPAGATED):
            assert _stage_weights(sensors, 3.0, 4.0, rule) == pytest.approx([0.2] * 3,
                                                                            rel=1e-15)


class TestSolveLinearStage:
    def test_consistent_system_recovers_exactly(self, rng):
        for _ in range(50):
            B = rng.normal(0, 50, (6, 2))
            x_true = rng.normal(0, 10, 2)
            est = solve_linear_stage(B, B @ x_true, np.ones(6))
            np.testing.assert_allclose(est.value, x_true, rtol=0,
                                       atol=1e-9 * max(1.0, np.abs(x_true).max()))

    def test_pseudo_measurements_copy_rhs(self, rng):
        B = rng.normal(0, 50, (6, 2))
        rhs = rng.normal(0, 10, 6)
        for est in (solve_linear_stage(B, rhs, np.ones(6)),
                    solve_shared_error_stage(B, rhs, np.ones(6), 0.5)):
            np.testing.assert_array_equal(est.pseudo_measurements, rhs)
            assert est.pseudo_measurements.dtype == np.float64
            assert not est.pseudo_measurements.flags.writeable
            assert not np.shares_memory(est.pseudo_measurements, rhs)
            assert_cannot_unlock(est.value, est.pseudo_measurements)

    def test_parallel_rows_singular(self):
        B = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        with pytest.raises(SingularGeometry):
            solve_linear_stage(B, np.array([1.0, 2.0, 3.0]), np.ones(3))

    def test_gradient_at_solution_is_zero(self, rng):
        # stationarity: grad = -2 B^T W (rhs - B x) must vanish at the minimizer
        for _ in range(50):
            B = rng.normal(0, 20, (8, 2))
            rhs = rng.normal(0, 100, 8)
            w = rng.uniform(0.1, 5.0, 8)
            est = solve_linear_stage(B, rhs, w)
            grad = -2.0 * B.T @ (w * (rhs - B @ est.value))
            assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(rhs))

    def test_minimizer_property(self, rng):
        def cost(B, rhs, w, x):
            return float(np.sum(w * (rhs - B @ x) ** 2))

        for _ in range(20):
            B = rng.normal(0, 20, (8, 2))
            rhs = rng.normal(0, 100, 8)
            w = rng.uniform(0.1, 5.0, 8)
            est = solve_linear_stage(B, rhs, w)
            at_min = cost(B, rhs, w, est.value)
            for _ in range(10):
                direction = rng.normal(0, 1, 2)
                direction /= np.linalg.norm(direction)
                for eps in (1e-3, -1e-3):
                    assert cost(B, rhs, w, est.value + eps * direction) >= at_min

    def test_weight_scaling_invariance(self, rng):
        B = rng.normal(0, 20, (8, 2))
        rhs = rng.normal(0, 100, 8)
        w = rng.uniform(0.1, 5.0, 8)
        base = solve_linear_stage(B, rhs, w)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            scaled = solve_linear_stage(B, rhs, w * scale)
            np.testing.assert_allclose(scaled.value, base.value, rtol=1e-12, atol=1e-12)

    def test_uniform_weights_reduce_to_plain_ls(self, rng):
        B = rng.normal(0, 20, (8, 2))
        rhs = rng.normal(0, 100, 8)
        uniform = solve_linear_stage(B, rhs, np.ones(8))
        scaled_uniform = solve_linear_stage(B, rhs, np.full(8, 2.5))
        np.testing.assert_allclose(scaled_uniform.value, uniform.value,
                                   rtol=1e-12, atol=1e-12)
        assert uniform.method == "LS"

    def test_extreme_uniform_weights_rescaled(self):
        # 1e300 overflows the Gram products and 1e-300 underflows the
        # determinant unless the weights are rescaled first
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for weight in (1e300, 1e-300):
            est = solve_linear_stage(B, [1.0, 2.0, 3.0], np.full(3, weight))
            np.testing.assert_allclose(est.value, [1.0, 2.0], rtol=1e-15, atol=1e-15)
            assert est.method == "LS"

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_stage(np.ones((3, 3)), np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            solve_linear_stage(np.ones((3, 2)), np.ones(4), np.ones(3))
        with pytest.raises(ValueError, match=r"^B must have shape \(N, 2\), got \(0, 2\)$"):
            solve_linear_stage(np.zeros((0, 2)), [], [])
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for bad_B, rhs, w, name in (
                (B, [1.0, 2.0, 3.5], [1.0, 1.0, -0.1], "weights must be positive"),
                (B, [1.0, np.nan, 3.5], np.ones(3), "rhs must be finite"),
                (np.where(B == 0.0, np.inf, B), np.ones(3), np.ones(3), "B must be finite"),
                (B, np.ones(3), [1.0, np.inf, 1.0], "weights must be finite")):
            with pytest.raises(ValueError, match=name):
                solve_linear_stage(bad_B, rhs, w)

    # an integer past the float range raised an unnamed OverflowError in
    # np.asarray; as inf it raised the ValueError
    @pytest.mark.parametrize("huge", [10**400, math.inf], ids=["integer", "inf"])
    def test_integer_past_the_float_range_rejected_as_inf(self, huge):
        B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        for bad_B, rhs, weights, name in ((B, [1.0, 2.0, huge], [1.0] * 3, "rhs"),
                                          (B, [1.0, 2.0, 3.0], [1.0, 1.0, huge], "weights"),
                                          (B, [1.0, 2.0, 3.0], [1.0, 1.0, -huge], "weights"),
                                          ([[1.0, 0.0], [0.0, -huge], [1.0, 1.0]],
                                           [1.0, 2.0, 3.0], [1.0] * 3, "B")):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                solve_linear_stage(bad_B, rhs, weights)


class TestSolveSharedErrorStage:
    def test_zero_variance_rules(self, rng):
        B = rng.normal(0, 20, (8, 2))
        rhs = rng.normal(0, 100, 8)
        # every variance zero: plain LS, whatever the shared variance
        none = solve_shared_error_stage(B, rhs, np.zeros(8), 5.0)
        np.testing.assert_array_equal(none.value, solve_linear_stage(B, rhs, np.ones(8)).value)
        # some zero: those rows take the smallest positive variance
        var = rng.uniform(0.5, 2.0, 8)
        var[[1, 4]] = 0.0
        floored = np.where(var > 0.0, var, var[var > 0.0].min())
        some = solve_shared_error_stage(B, rhs, var, 3.0)
        np.testing.assert_array_equal(some.value,
                                      solve_shared_error_stage(B, rhs, floored, 3.0).value)
        assert np.all(np.isfinite(some.value))

    def test_zero_shared_variance_is_inverse_variance_wls(self, rng):
        B = rng.normal(0, 20, (8, 2))
        rhs = rng.normal(0, 100, 8)
        var = rng.uniform(0.5, 2.0, 8)
        est = solve_shared_error_stage(B, rhs, var, 0.0)
        np.testing.assert_allclose(est.value, solve_linear_stage(B, rhs, 1.0 / var).value,
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(est.pseudo_measurements, rhs)

    def test_bad_inputs_rejected(self):
        B, rhs = np.eye(2), np.ones(2)
        for var, s2 in (([1.0, -1.0], 0.0), ([1.0, 1.0], -1.0), ([1.0, 1.0], np.inf),
                        ([1.0, 1.0], np.nan)):
            with pytest.raises(ValueError,
                               match="^variances and shared_variance must be finite and >= 0$"):
                solve_shared_error_stage(B, rhs, np.array(var), s2)
        with pytest.raises(ValueError, match="^variances must be finite$"):
            solve_shared_error_stage(B, rhs, np.array([1.0, np.nan]), 0.0)
        with pytest.raises(ValueError):
            solve_shared_error_stage(B, rhs, np.ones(3), 0.0)
        with pytest.raises(ValueError, match="rhs must be finite"):
            solve_shared_error_stage(B, [1.0, np.nan], np.ones(2), 0.0)
        with pytest.raises(ValueError, match="B must be finite"):
            solve_shared_error_stage([[1.0, 0.0], [0.0, np.inf]], rhs, np.ones(2), 0.0)
        with pytest.raises(ValueError, match=r"^B must have shape \(N, 2\), got \(0, 2\)$"):
            solve_shared_error_stage(np.zeros((0, 2)), [], [], 0.0)
        # each variance finite though their sum overflows: accepted and solved
        est = solve_shared_error_stage([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0],
                                       np.full(3, 1e308), 0.0)
        np.testing.assert_allclose(est.value, [1.0, 2.0], rtol=1e-15, atol=1e-15)

    def test_non_numeric_shared_variance_rejected(self):
        # float() read True as s2 = 1 and "0.5" as s2 = 0.5
        B, rhs = np.eye(2), np.ones(2)
        for bad in (True, np.True_, "0.5", None, 0.5 + 0j):
            message = f"^shared_variance must be a real number, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                solve_shared_error_stage(B, rhs, np.ones(2), bad)

    # an integer past the float range raised an unnamed OverflowError in
    # np.asarray (a variance) or in float() (the shared variance)
    @pytest.mark.parametrize("huge", [10**400, math.inf], ids=["integer", "inf"])
    def test_integer_past_the_float_range_rejected_as_inf(self, huge):
        shared_message = "variances and shared_variance must be finite and >= 0"
        for variances, shared, message in (([1.0, 1.0, huge], 0.0, "variances must be finite"),
                                           ([1.0] * 3, huge, shared_message),
                                           ([1.0] * 3, -huge, shared_message)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                solve_shared_error_stage([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                         [1.0, 2.0, 3.0], variances, shared)

    # each row's variance or the shared one is 2^1024 times the smallest
    # variance or more, or the smallest is subnormal: math.ldexp overflowed
    # while scaling them and raised an unnamed OverflowError
    @pytest.mark.parametrize("variances, shared", [([1e-300, 1e10, 1.0], 0.0),
                                                   ([1e-300, 1.0, 1.0], 1e10),
                                                   ([5e-324, 1.0, 1.0], 0.0)])
    def test_variances_past_the_scaling_range_give_named_errors(self, variances, shared):
        # the rows past the range carry weight 0 (or, for the shared variance,
        # leave the offset free), and what is left cannot fix two unknowns
        with pytest.raises(SingularGeometry):
            solve_shared_error_stage([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0],
                                     variances, shared)

    def test_variances_past_the_scaling_range_are_the_limits(self):
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        rhs = np.array([1.0, 2.0, 4.0, -1.0])
        # an infinite variance: the row carries no weight
        est = solve_shared_error_stage(B[:3], rhs[:3], [1e-300, 1e-300, 1e10], 0.0)
        assert est.value.tolist() == [1.0, 2.0]
        # an infinite shared variance: plain LS with an unconstrained offset
        est = solve_shared_error_stage(B, rhs, np.full(4, 1e-300), 1e10)
        want = np.linalg.lstsq(np.column_stack((B, np.ones(4))), rhs, rcond=None)[0][:2]
        np.testing.assert_allclose(est.value, want, rtol=1e-15, atol=0)


class TestEstimateVelocity:
    def test_unit_range_rows(self):
        # rows (p_hat - p_i) = [[-1, 0], [0, -1]] and d_i = a_i * r_i = a_i
        sensors = SensorArray([(1.0, 0.0), (0.0, 1.0)])
        ms = MeasurementSet([1.0, 1.0], [2.0, 3.0], [0.0, 0.0], NOISELESS)
        est = estimate_velocity(ms, sensors, (0.0, 0.0), UNIFORM)
        np.testing.assert_array_equal(est.value, [-2.0, -3.0])
        np.testing.assert_array_equal(est.pseudo_measurements, [2.0, 3.0])

    def test_solves_rows_with_rule_weights(self, sensors8, rng):
        truth = TargetState((30.0, 40.0), (10.0, -5.0))
        ms = synthesize_measurements(truth, sensors8, NoiseSpec(), rng)
        p_hat = estimate_position(ms, sensors8).position
        rows = p_hat - sensors8.positions
        rhat = np.hypot(rows[:, 0], rows[:, 1])
        for rule in (UNIFORM, WeightRule(), PROPAGATED):
            est = estimate_velocity(ms, sensors8, p_hat, rule)
            d = ms.range_rates * rhat
            np.testing.assert_array_equal(est.pseudo_measurements, d)
            w = np.ones(len(rhat)) if rule.mode == "uniform" else 1.0 / rhat
            np.testing.assert_array_equal(est.value, solve_linear_stage(rows, d, w).value)

    def test_position_on_sensor_raises(self):
        sensors = SensorArray([(3.0, 4.0), (0.0, 1.0), (1.0, 0.0)])
        ms = MeasurementSet([1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3, NOISELESS)
        with pytest.raises(ZeroRange):
            estimate_velocity(ms, sensors, (3.0, 4.0), UNIFORM)

    def test_noiseless_recovery_with_true_position(self, sensors8):
        truth = TargetState((30.0, 40.0), (10.0, -5.0))
        ms = exact_measurements(truth, sensors8)
        est = estimate_velocity(ms, sensors8, truth.position, UNIFORM)
        np.testing.assert_allclose(est.value, [10.0, -5.0], rtol=0, atol=1e-9)
        assert est.method == "LS"

    def test_noiseless_wls_equals_ls(self, sensors8):
        truth = TargetState((30.0, 40.0), (10.0, -5.0))
        ms = exact_measurements(truth, sensors8)
        ls = estimate_velocity(ms, sensors8, truth.position, UNIFORM)
        wls = estimate_velocity(ms, sensors8, truth.position, WeightRule())
        np.testing.assert_allclose(wls.value, ls.value, rtol=0, atol=1e-9)
        assert wls.method == "WLS"

    def test_wls_beats_ls_at_default_noise(self, sensors8):
        # ensemble ordering that motivates the weighting: sigma_rr = 1
        gen = np.random.default_rng(7)
        se_ls, se_wls = 0.0, 0.0
        trials = 1000
        for _ in range(trials):
            truth = TargetState(gen.uniform(0, 100, 2), gen.uniform(-20, 20, 2))
            ms = synthesize_measurements(truth, sensors8, NoiseSpec(1.0, 1.0, 1.0), gen)
            p_hat = estimate_position(ms, sensors8).position
            v_ls = estimate_velocity(ms, sensors8, p_hat, UNIFORM).value
            v_wls = estimate_velocity(ms, sensors8, p_hat, WeightRule()).value
            se_ls += np.sum((v_ls - truth.velocity) ** 2)
            se_wls += np.sum((v_wls - truth.velocity) ** 2)
        assert np.sqrt(se_wls / trials) <= 1.02 * np.sqrt(se_ls / trials)


class TestAccelerationPseudoMeasurements:
    def test_zero_acceleration_circular(self):
        sensors = SensorArray([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        truth = TargetState((5.0, 0.0), (0.0, 2.0), (0.0, 0.0))
        ms = exact_measurements(truth, sensors)
        assert ms.drrs[0] == pytest.approx(0.8, abs=1e-12)
        k = acceleration_pseudo_measurements(ms, sensors, truth.position,
                                             truth.velocity)
        assert k[0] == pytest.approx(0.0, abs=1e-9)

    def test_radial_case(self):
        sensors = SensorArray([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        truth = TargetState((5.0, 0.0), (3.0, 0.0), (1.0, 0.0))
        ms = exact_measurements(truth, sensors)
        assert ms.drrs[0] == pytest.approx(1.0, abs=1e-12)
        k = acceleration_pseudo_measurements(ms, sensors, truth.position,
                                             truth.velocity)
        # a . (p - p_0) = (1,0) . (5,0) = 5
        assert k[0] == pytest.approx(5.0, abs=1e-9)

    def test_identity_against_analytic_drr(self, sensors8, rng):
        for _ in range(100):
            truth = TargetState(rng.uniform(0, 100, 2), rng.uniform(-20, 20, 2),
                                rng.uniform(-10, 10, 2))
            ms = exact_measurements(truth, sensors8)
            k = acceleration_pseudo_measurements(ms, sensors8, truth.position,
                                                 truth.velocity)
            expected = (sensors8.positions * -1 + truth.position) @ truth.acceleration
            np.testing.assert_allclose(k, expected, rtol=0,
                                       atol=1e-9 * max(1.0, np.abs(expected).max()))


class TestEstimateAcceleration:
    def test_noiseless_recovery(self, sensors8, rng):
        # stage 3 sees no noise when given the true position and velocity.  The
        # propagated rule's variances D_i are all zero on exact measurements;
        # with range noise only and zero velocity D_i = b_i^2 sigma_r^2 is zero
        # just at the sensor (50, 50), where the acceleration is across the line
        # of sight.  Sigmas far from 1 give weights far from 1: 4.6e-124 makes
        # 1/D near 1e247 and 1e150 makes it near 1e-304, which the solve must
        # rescale before forming its Gram products.  A drr sigma of 5e151 gives
        # each D_i finite (up to 9e307) but a sum that overflows
        moving = TargetState((30.0, 40.0), (10.0, -5.0), (2.0, -1.0))
        still = TargetState((50.0, 0.0), (0.0, 0.0), (1.0, 0.0))
        range_noise_only = synthesize_measurements(still, sensors8,
                                                   NoiseSpec(1.0, 0.0, 0.0), rng)
        rows = still.position - sensors8.positions
        # lists of floats, as the velocity stage hands them over, with its Gram sums
        ranges, (bx, by), w = np.hypot(*rows.T).tolist(), rows.T.tolist(), [1.0] * len(sensors8)
        variances, _ = acceleration_error_model(range_noise_only, ranges, bx, by, w,
                                                *still.velocity.tolist(),
                                                K.normal_sums(bx, by, ranges, w)[:3])
        assert variances.count(0.0) == 1 and max(variances) > 0.0
        cases = [(moving, exact_measurements(moving, sensors8), UNIFORM),
                 (moving, exact_measurements(moving, sensors8), PROPAGATED),
                 (still, range_noise_only, PROPAGATED),
                 (moving, exact_measurements(moving, sensors8, NoiseSpec(4.6e-124, 0.0, 0.0)),
                  PROPAGATED),
                 (moving, exact_measurements(moving, sensors8, NoiseSpec(1.0, 1.0, 1e150)),
                  PROPAGATED),
                 (moving, exact_measurements(moving, sensors8, NoiseSpec(1.0, 1.0, 5e151)),
                  PROPAGATED)]
        for truth, ms, rule in cases:
            est = estimate_acceleration(ms, sensors8, truth.position, truth.velocity,
                                        rule)
            np.testing.assert_allclose(est.value, truth.acceleration, rtol=0, atol=1e-9)

    def test_zero_acceleration(self, sensors8):
        truth = TargetState((30.0, 40.0), (10.0, -5.0))
        ms = exact_measurements(truth, sensors8)
        est = estimate_acceleration(ms, sensors8, truth.position, truth.velocity,
                                    WeightRule())
        np.testing.assert_allclose(est.value, [0.0, 0.0], rtol=0, atol=1e-9)

    def test_propagated_matches_dense_gls_reference(self, sensors8, rng):
        # independent route: the dense first-order covariance of k, built by
        # matrix products, and the GLS estimate from lstsq on the whitened rows
        noise = NoiseSpec(1.0, 0.3, 0.1)
        for _ in range(20):
            truth = TargetState(rng.uniform(0, 100, 2), rng.uniform(-20, 20, 2),
                                rng.uniform(-10, 10, 2))
            ms = synthesize_measurements(truth, sensors8, noise, rng)
            p = estimate_position(ms, sensors8).position
            v = estimate_velocity(ms, sensors8, p, PROPAGATED).value
            got = estimate_acceleration(ms, sensors8, p, v, PROPAGATED).value

            a, b = ms.range_rates, ms.drrs
            B = p - sensors8.positions
            r = np.hypot(B[:, 0], B[:, 1])
            w = 1.0 / r
            g_inv = np.linalg.inv(B.T @ (w[:, None] * B))
            var_d = r ** 2 * noise.sigma_range_rate ** 2 + a ** 2 * noise.sigma_range ** 2
            cov_v = g_inv @ B.T @ np.diag(w ** 2 * var_d) @ B @ g_inv
            cov_k = (np.diag(r ** 2 * noise.sigma_drr ** 2
                             + 4.0 * a ** 2 * noise.sigma_range_rate ** 2
                             + b ** 2 * noise.sigma_range ** 2)
                     + 4.0 * (v @ cov_v @ v) * np.ones((8, 8)))
            k = b * r - v @ v + a ** 2
            whiten = np.linalg.inv(np.linalg.cholesky(cov_k))
            want, *_ = np.linalg.lstsq(whiten @ B, whiten @ k, rcond=None)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def _acceleration_error_model_loop(measurements, ranges, bx, by, velocity_weights, v0, v1):
    """``acceleration_error_model`` in its first loop form, every product
    written out and the columns read from the arrays: the reference that its
    shared factors and the stored lists must match bit for bit."""
    noise = measurements.noise
    var_r = noise.sigma_range * noise.sigma_range
    var_a = noise.sigma_range_rate * noise.sigma_range_rate
    var_b = noise.sigma_drr * noise.sigma_drr
    variances = []
    g00 = g01 = g11 = m00 = m01 = m11 = 0.0
    for r, a, b, w, x, y in zip(ranges, measurements.range_rates.tolist(),
                                measurements.drrs.tolist(), velocity_weights, bx, by,
                                strict=True):
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
    u0 = (g11 * v0 - g01 * v1) / det
    u1 = (g00 * v1 - g01 * v0) / det
    shared = 4.0 * (u0 * u0 * m00 + 2.0 * u0 * u1 * m01 + u1 * u1 * m11)
    if not (all(map(math.isfinite, variances)) and math.isfinite(shared)):
        raise SingularGeometry("stage-3 error model overflows (a measurement too large to square)")
    return variances, max(0.0, shared)


def _near(k, signed=True):
    """Floats near 2^k: a mantissa in [-1, 1] (or [0, 1]) times 2^(k + 0..3)."""
    return st.builds(math.ldexp, st.floats(-1.0 if signed else 0.0, 1.0),
                     st.integers(k, k + 3))


@st.composite
def _error_model_inputs(draw):
    """Inputs of ``acceleration_error_model`` whose scales span 2^-250 to
    2^253, each quantity at its own scale, so that the variances and the
    shared variance underflow or overflow in some draws."""
    n = draw(st.integers(2, 10))

    def column(signed=True):
        k = draw(st.integers(-250, 250))
        return draw(st.lists(_near(k, signed), min_size=n, max_size=n))

    sigmas = [draw(_near(draw(st.integers(-250, 250)), signed=False)) for _ in range(3)]
    ranges, rates, drrs = column(False), column(), column()
    k = draw(st.integers(-250, 250))        # one scale for both row columns
    bx, by = (draw(st.lists(_near(k + draw(st.integers(-3, 3))), min_size=n, max_size=n))
              for _ in range(2))
    weights = column(False)
    v0, v1 = draw(st.lists(_near(draw(st.integers(-250, 250))), min_size=2, max_size=2))
    ms = MeasurementSet(ranges, rates, drrs, NoiseSpec(*sigmas))
    return ms, ranges, bx, by, weights, v0, v1


@settings(max_examples=300, deadline=None)
@given(args=_error_model_inputs())
def test_acceleration_error_model_matches_its_loop_form_bit_for_bit(args):
    def outcome(fn, *gram):
        try:
            variances, shared = fn(*args, *gram)
        except SingularGeometry as exc:
            return str(exc)
        return [v.hex() for v in variances], shared.hex()

    _, ranges, bx, by, weights, _, _ = args
    # the Gram sums as the velocity solve forms them, which the loop form forms itself
    gram = K.normal_sums(bx, by, ranges, weights)[:3]
    assert outcome(acceleration_error_model, gram) == outcome(_acceleration_error_model_loop)


def _velocity_loop_form(measurements, sensors, px, py, rule):
    """``estim._velocity`` in its first form: weights ones or [1 / r ...],
    d = [a * r ...] and the sums of ``_wls_solve2_loop``, as (estimate,
    weights, Gram sums).  The reference that the stage's one loop per rule
    must match bit for bit."""
    bx, by, rhat = K.system_rows(sensors.xs, sensors.ys, px, py)
    w = [1.0] * len(rhat) if rule.mode == "uniform" else [1.0 / r for r in rhat]
    d = [a * r for a, r in zip(measurements.range_rates.tolist(), rhat)]
    x0, x1, cond, *gram = _wls_solve2_loop(bx, by, d, w)
    method = "LS" if rule.mode == "uniform" else "WLS"
    return estim.KinematicEstimate((x0, x1), method, cond, np.array(d).tobytes()), w, gram


@st.composite
def _velocity_inputs(draw):
    """A layout of 2 to 12 sensors and a position near 2^k, k from -250 to
    250, and range rates at a scale of their own, so that a row's d_i or a
    sum underflows or overflows, or the Gram matrix is singular, in some
    draws; in some the position is a sensor's (ZeroRange)."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(-250, 250))
    sx, sy = (draw(st.lists(_near(k + draw(st.integers(-3, 3))), min_size=n, max_size=n))
              for _ in range(2))
    px, py = draw(_near(k)), draw(_near(k))
    if draw(st.integers(0, 9)) == 0:
        px, py = sx[-1], sy[-1]
    rates = draw(st.lists(_near(draw(st.integers(-250, 250))), min_size=n, max_size=n))
    ms = MeasurementSet([1.0] * n, rates, [0.0] * n, NoiseSpec(1.0, 0.1, 0.1))
    return ms, SensorArray(np.column_stack([sx, sy])), px, py


@settings(max_examples=300, deadline=None)
@given(args=_velocity_inputs())
# the default layout at its scale, where 1/r and every product are normal
@example(args=(exact_measurements(TargetState((30.0, 40.0), (10.0, -5.0)),
                                  SensorArray(DEFAULT_SENSOR_POSITIONS)),
               SensorArray(DEFAULT_SENSOR_POSITIONS), 31.0, 39.0))
def test_velocity_stage_loops_match_their_loop_form_bit_for_bit(args):
    def outcome(fn, rule):
        try:
            est, w, gram = fn(*args, rule)
        except (SingularGeometry, ZeroRange) as exc:
            return type(exc).__name__, str(exc)
        return _estimate_bits(est), [v.hex() for v in w], [g.hex() for g in gram]

    for rule in (UNIFORM, WeightRule(), PROPAGATED):
        assert outcome(estim._velocity, rule) == outcome(_velocity_loop_form, rule), rule


def _shared_error_solve_comprehension(bx, by, rhs, var, s2):
    """``estim._shared_error_solve`` with its centring in its first form, one
    comprehension per centred column, solved by ``_wls_solve2_loop``: the
    reference that its single loop, which forms the normal-equation sums as
    it centres, must match bit for bit."""
    lowest = min(var)
    if lowest == 0.0:
        positive = [d for d in var if d > 0.0]
        if positive:
            lowest = min(positive)
            var = [max(d, lowest) for d in var]
        else:
            var = [1.0] * len(var)
            lowest, s2 = 1.0, 0.0
    e = math.frexp(lowest)[1] - 1
    top = math.ldexp(1.0, 1024 + e) if e < 0 else math.inf
    s2 = math.ldexp(s2, -e) if s2 < top else math.inf
    j = var.index(lowest)
    rx, ry, rk = bx[j], by[j], rhs[j]
    w = []
    total = ax = ay = ak = 0.0
    for d, x, y, k in zip(var, bx, by, rhs):
        wi = 1.0 / math.ldexp(d, -e) if d < top else 0.0
        w.append(wi)
        total += wi
        ax += wi * (x - rx)
        ay += wi * (y - ry)
        ak += wi * (k - rk)
    keep = 1.0 / math.sqrt(1.0 + s2 * total)
    if keep == 1.0:
        cx, cy, ck = bx, by, rhs
    else:
        shrink = (1.0 - keep) / total
        ox, oy, ok = keep * rx - shrink * ax, keep * ry - shrink * ay, keep * rk - shrink * ak
        cx = [(x - rx) + ox for x in bx]
        cy = [(y - ry) + oy for y in by]
        ck = [(k - rk) + ok for k in rhs]
    x0, x1, cond, *_ = _wls_solve2_loop(cx, cy, ck, w)
    return estim.KinematicEstimate((x0, x1), "WLS", cond, np.array(rhs).tobytes())


@st.composite
def _shared_error_inputs(draw):
    """Stage columns at one scale from 2^-250 to 2^253, and variances each at
    its own scale within a window of 2^-1074 to 2^1023, narrow in most draws
    and so wide in others that the smallest is subnormal or a row's weight
    is 0; some variances are 0 (all of them in some draws), and the shared
    variance is 0 or small enough to leave 1 - lam at 1.0 in some draws."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(-250, 250))
    bx, by = (draw(st.lists(_near(k + draw(st.integers(-3, 3))), min_size=n, max_size=n))
              for _ in range(2))
    rhs = draw(st.lists(_near(draw(st.integers(-250, 250))), min_size=n, max_size=n))
    lo = draw(st.integers(-1074, 1020))
    hi = min(1020, lo + draw(st.sampled_from([4, 4, 60, 2094])))

    def positive(low, high):    # mantissas in [0.5, 1]: 0 only where asked for
        return st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(low, high))

    variance = positive(lo, hi)
    zeros = draw(st.sampled_from(["none", "none", "none", "some", "all"]))
    if zeros != "none":
        variance = st.one_of(variance, st.just(0.0)) if zeros == "some" else st.just(0.0)
    variances = draw(st.lists(variance, min_size=n, max_size=n))
    # near the variances in most draws, where the offset is neither ignored nor free
    shared = draw(st.one_of(positive(max(-1074, lo - 30), min(1020, hi + 30)),
                            positive(-1074, 1020), st.just(0.0)))
    return bx, by, rhs, variances, shared


def _estimate_bits(est):
    """The hex bits of an estimate, with its label."""
    return ([v.hex() for v in est.value.tolist()], est.method, est.gram_condition.hex(),
            [p.hex() for p in est.pseudo_measurements.tolist()])


def _estimate_outcome(fn, *args):
    """The hex bits of fn's estimate with its label, or its SingularGeometry message."""
    try:
        est = fn(*args)
    except SingularGeometry as exc:
        return str(exc)
    return _estimate_bits(est)


@settings(max_examples=300, deadline=None)
@given(args=_shared_error_inputs())
# every variance 0: the uniform-weight fallback, which takes s2 = 0
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0], [0.0] * 3, 7.0))
# s2 = 0 with positive variances: 1 - lam is 1.0 and the rows pass uncentred
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0], [1.0, 2.0, 4.0], 0.0))
# s2 * sum(w) far below 2^-53: 1 - lam rounds to 1.0 and the rows pass uncentred
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0], [1.0, 2.0, 4.0], 1e-20))
# a row of variance 0 among positive ones, centred
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0], [0.0, 2.0, 4.0], 0.5))
# smallest variance 2^-1074, so the weights' numerator 2^e is subnormal, and a
# weight (2^-1074 / 1.5 * 2^52) that is subnormal too
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0],
               [2.0 ** -1074, 3.0 * 2.0 ** -1060, 1.5 * 2.0 ** -52], 2.0 ** -1074))
# e = -10: a row whose weight 2^-10 / (1.5 * 2^1013) underflows to a subnormal
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0],
               [2.0 ** -10, 2.0 ** -9, 1.5 * 2.0 ** 1013], 0.5))
# e = -10: a row at top = 2^1014 exactly, whose weight is 0
@example(args=([3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [1.0, 2.0, 5.0],
               [2.0 ** -10, 2.0 ** -9, 2.0 ** 1014], 0.5))
def test_shared_error_centring_matches_its_comprehension_form_bit_for_bit(args):
    bx, by, rhs, variances, shared = args
    B = np.column_stack([bx, by])
    assert (_estimate_outcome(solve_shared_error_stage, B, rhs, variances, shared)
            == _estimate_outcome(_shared_error_solve_comprehension, *args))


@st.composite
def _pipeline_inputs(draw):
    """The default layout or the 64-sensor ring, scaled by 2^k, with ranges at
    the layout's scale and range rates, drrs and sigmas each at a scale of its
    own, from 2^-250 to 2^253 as in ``_error_model_inputs``; in some draws a
    stage overflows or its Gram matrix is singular."""
    layout = draw(st.sampled_from([DEFAULT_SENSOR_POSITIONS, _RING64]))
    k = draw(st.integers(-250, 250))
    sensors = SensorArray(np.ldexp(np.asarray(layout, dtype=np.float64), k))
    n = len(sensors)

    def column(scale, signed=True):
        return draw(st.lists(_near(scale, signed), min_size=n, max_size=n))

    ranges = column(k + draw(st.integers(4, 8)), signed=False)
    rates, drrs = (column(draw(st.integers(-250, 250))) for _ in range(2))
    sigmas = [draw(_near(draw(st.integers(-250, 250)), signed=False)) for _ in range(3)]
    return MeasurementSet(ranges, rates, drrs, NoiseSpec(*sigmas)), sensors


def _exact_inputs(layout, noise):
    sensors = SensorArray(layout)
    truth = TargetState((30.0, 40.0), (10.0, -5.0), (2.0, -1.0))
    return exact_measurements(truth, sensors, noise), sensors


@settings(max_examples=200, deadline=None)
@given(args=_pipeline_inputs())
# noiseless: every variance is 0, the uniform-weight fallback
@example(args=_exact_inputs(DEFAULT_SENSOR_POSITIONS, NOISELESS))
@example(args=_exact_inputs(_RING64, NoiseSpec(1.0, 0.3, 0.1)))
# a drr sigma of 5e151: finite variances whose sum overflows
@example(args=_exact_inputs(DEFAULT_SENSOR_POSITIONS, NoiseSpec(1.0, 1.0, 5e151)))
def test_pipeline_acceleration_matches_the_stage_given_v_hat_alone(args):
    # estimate_all hands each velocity solve's components, weights and Gram
    # sums to its acceleration stage; the chain of public stage functions on a
    # fresh SensorArray (other tuples) reads v_hat alone and forms them from its
    # own rows.  Every field, or the first error, must be the same, in bits
    ms, sensors = args
    fresh = SensorArray(sensors.positions)

    def outcome(stages, rule):
        try:
            pos, *estimates = stages(rule)
        except KinlocError as exc:
            return type(exc).__name__, str(exc)
        return ([pos.position.tobytes(), pos.theta3.hex(), pos.residual_norm.hex(),
                 pos.gram_condition.hex()] + [_estimate_bits(est) for est in estimates])

    def pipeline(rule):
        res = estimate_all(ms, sensors, rule)
        return res.position, res.velocity_ls, res.velocity_wls, res.accel_ls, res.accel_wls

    def chain(rule):
        pos = estimate_position(ms, fresh)
        p = pos.position
        v_ls = estimate_velocity(ms, fresh, p, UNIFORM)
        v_wls = estimate_velocity(ms, fresh, p, rule)
        return (pos, v_ls, v_wls, estimate_acceleration(ms, fresh, p, v_ls.value, UNIFORM),
                estimate_acceleration(ms, fresh, p, v_wls.value, rule))

    for rule in (UNIFORM, WeightRule(), PROPAGATED):
        assert outcome(pipeline, rule) == outcome(chain, rule), rule


def test_pipeline_takes_the_velocity_gram_instead_of_forming_it(sensors8, monkeypatch):
    # one entry per normal_sums call: whether it formed the Gram sums itself
    formed = []
    real = K.normal_sums

    def sums_spy(bx, by, rhs, w, gram=None):
        formed.append(gram is None)
        return real(bx, by, rhs, w, gram)

    monkeypatch.setattr(K, "normal_sums", sums_spy)
    truth = TargetState((30.0, 40.0), (10.0, -5.0), (2.0, -1.0))
    ms = synthesize_measurements(truth, sensors8, NoiseSpec(1.0, 0.3, 0.1), 3)
    res = estimate_all(ms, sensors8, PROPAGATED)
    # the LS acceleration solve's sums, on the LS velocity Gram; the propagated
    # solve forms its own in its loop and its error model takes the WLS Gram
    assert formed == [False]
    # a caller with v_hat alone: the error model takes the Gram of the velocity
    # stage with its rule, which no normal_sums call forms, and gives the same bits
    formed.clear()
    grams = []
    real_model = estim.acceleration_error_model

    def model_spy(*args):
        grams.append(args[-1])
        return real_model(*args)

    monkeypatch.setattr(estim, "acceleration_error_model", model_spy)
    again = estimate_acceleration(ms, SensorArray(sensors8.positions), res.position.position,
                                  res.velocity_wls.value, PROPAGATED)
    assert formed == []
    px, py = res.position.position.tolist()
    assert grams == [estim._velocity(ms, sensors8, px, py, PROPAGATED)[2]]
    assert again.value.tobytes() == res.accel_wls.value.tobytes()


@pytest.mark.parametrize("rule, handed", [
    # velocity LS, velocity WLS, acceleration LS, acceleration WLS
    (UNIFORM, [False, False, True, True]),
    (WeightRule(), [False, False, True, True]),
    # the propagated acceleration WLS reweights its rows: its Gram is its own
    (PROPAGATED, [False, False, True, False]),
])
def test_pipeline_hands_each_acceleration_solve_its_velocity_gram(sensors8, monkeypatch,
                                                                   rule, handed):
    # one entry per solve: whether normal_sums formed its sums from a handed
    # Gram; a stage that forms its sums in its own loop calls no normal_sums
    calls = []
    handed_gram = []
    real_sums, real_solve = K.normal_sums, K.wls_solve2

    def sums_spy(bx, by, rhs, w, gram=None):
        handed_gram.append(gram is not None)
        return real_sums(bx, by, rhs, w, gram)

    def solve_spy(*sums):
        calls.append(handed_gram.pop() if handed_gram else False)
        return real_solve(*sums)

    monkeypatch.setattr(K, "normal_sums", sums_spy)
    monkeypatch.setattr(K, "wls_solve2", solve_spy)
    truth = TargetState((30.0, 40.0), (10.0, -5.0), (2.0, -1.0))
    ms = synthesize_measurements(truth, sensors8, NoiseSpec(1.0, 0.3, 0.1), 3)
    estimate_all(ms, sensors8, rule)
    assert calls == handed
    # a caller with v_hat alone runs the velocity stage with its rule and
    # solves on its Gram, as the pipeline's WLS pair does
    calls.clear()
    estimate_acceleration(ms, sensors8, truth.position, truth.velocity, rule)
    assert calls == [handed[1], handed[3]]


class TestPipeline:
    def test_noiseless_end_to_end(self, sensors8, rng):
        for _ in range(25):
            truth = TargetState(rng.uniform(0, 100, 2), rng.uniform(-20, 20, 2),
                                rng.uniform(-10, 10, 2))
            ms = exact_measurements(truth, sensors8)
            for rule in (WeightRule(), PROPAGATED):
                res = estimate_all(ms, sensors8, rule)
                np.testing.assert_allclose(res.position.position, truth.position,
                                           rtol=0, atol=1e-6)
                for est, want in [(res.velocity_ls, truth.velocity),
                                  (res.velocity_wls, truth.velocity),
                                  (res.accel_ls, truth.acceleration),
                                  (res.accel_wls, truth.acceleration)]:
                    np.testing.assert_allclose(est.value, want, rtol=0, atol=1e-6)

    def test_position_noise_biases_velocity(self, sensors8):
        # sequential coupling: range noise alone must disturb the velocity stage
        gen = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            truth = TargetState(gen.uniform(0, 100, 2), gen.uniform(-20, 20, 2))
            ms = synthesize_measurements(truth, sensors8, NoiseSpec(1.0, 0.0, 0.0), gen)
            res = estimate_all(ms, sensors8)
            worst = max(worst, np.abs(res.velocity_ls.value - truth.velocity).max())
        assert worst > 1e-6

    def test_outputs_are_fresh_read_only_float64_arrays(self, rng):
        truth = TargetState((30.0, 40.0), (10.0, -5.0), (1.0, 1.0))
        for sensors, rule in itertools.product(
                (SensorArray(DEFAULT_SENSOR_POSITIONS), SensorArray(_RING64)),
                (UNIFORM, WeightRule(), PROPAGATED)):
            ms = synthesize_measurements(truth, sensors, NoiseSpec(), rng)
            inputs = [ms.ranges, ms.range_rates, ms.drrs, sensors.positions]
            res = estimate_all(ms, sensors, rule)
            stages = (res.velocity_ls, res.velocity_wls, res.accel_ls, res.accel_wls)
            arrays = ([res.position.position] + [est.value for est in stages]
                      + [est.pseudo_measurements for est in stages])
            for i, arr in enumerate(arrays):
                assert type(arr) is np.ndarray and arr.dtype == np.float64
                assert arr.shape == ((2,) if i < 5 else (len(sensors),))
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, other)
                               for other in arrays[i + 1:] + inputs)
                assert_cannot_unlock(arr)

    def test_stages_neither_lock_nor_retain_writable_inputs(self, sensors8, rng):
        truth = TargetState((30.0, 40.0), (10.0, -5.0), (1.0, 1.0))
        ms = synthesize_measurements(truth, sensors8, NoiseSpec(), rng)
        for rule in (UNIFORM, WeightRule(), PROPAGATED):
            p_hat, v_hat = np.array([31.0, 39.0]), np.array([9.0, -4.0])
            vel = estimate_velocity(ms, sensors8, p_hat, rule)
            acc = estimate_acceleration(ms, sensors8, p_hat, v_hat, rule)
            k = acceleration_pseudo_measurements(ms, sensors8, p_hat, v_hat)
            assert p_hat.flags.writeable and v_hat.flags.writeable
            kept = [np.array(a) for a in (vel.value, acc.value, acc.pseudo_measurements, k)]
            p_hat[:] = v_hat[:] = np.nan
            for arr, copy in zip((vel.value, acc.value, acc.pseudo_measurements, k), kept):
                assert not np.shares_memory(arr, p_hat) and not np.shares_memory(arr, v_hat)
                np.testing.assert_array_equal(arr, copy)

    def test_stage_inputs_checked_like_as_vec2(self, sensors8, rng):
        truth = TargetState((30.0, 40.0), (10.0, -5.0), (1.0, 1.0))
        ms = synthesize_measurements(truth, sensors8, NoiseSpec(), rng)
        good = np.array([31.0, 39.0])
        for bad, message in ((np.array([np.nan, 1.0]), "must be finite"),
                             ([1.0, np.inf], "must be finite"),
                             (np.zeros(3), "must have shape (2,), got (3,)"),
                             (np.zeros((1, 2)), "must have shape (2,), got (1, 2)")):
            with pytest.raises(ValueError, match=r"^p_hat " + re.escape(message)):
                estimate_velocity(ms, sensors8, bad)
            with pytest.raises(ValueError, match=r"^p_hat " + re.escape(message)):
                estimate_acceleration(ms, sensors8, bad, good)
            with pytest.raises(ValueError, match=r"^v_hat " + re.escape(message)):
                estimate_acceleration(ms, sensors8, good, bad, PROPAGATED)
            with pytest.raises(ValueError, match=r"^v_hat " + re.escape(message)):
                acceleration_pseudo_measurements(ms, sensors8, good, bad)
        # integer and float32 vectors are read as float64, as as_vec2 reads them
        np.testing.assert_array_equal(
            estimate_velocity(ms, sensors8, np.array([31, 39])).value,
            estimate_velocity(ms, sensors8, good).value)
        np.testing.assert_array_equal(
            estimate_velocity(ms, sensors8, np.array([31.0, 39.0], dtype=np.float32)).value,
            estimate_velocity(ms, sensors8, good).value)

    def test_methods_labeled(self, sensors8, rng):
        truth = TargetState((30.0, 40.0), (10.0, -5.0), (1.0, 1.0))
        ms = synthesize_measurements(truth, sensors8, NoiseSpec(), rng)
        for rule in (WeightRule(), PROPAGATED):
            res = estimate_all(ms, sensors8, rule)
            assert res.velocity_ls.method == "LS"
            assert res.velocity_wls.method == "WLS"
            assert res.accel_ls.method == "LS"
            assert res.accel_wls.method == "WLS"


# degenerate-input families: a target almost on a sensor, the reference layout
# squashed towards a line (close to _kernels.COND_CAP), and the whole scene moved far
# from the origin, with noise levels from 0 to 100
_SIGMA = st.floats(min_value=0.0, max_value=100.0)


@st.composite
def _degenerate_scene(draw):
    layout = DEFAULT_SENSOR_POSITIONS.copy()
    target = np.array([draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, 100.0))])
    family = draw(st.sampled_from(("near_sensor", "near_collinear", "far_offset")))
    if family == "near_sensor":
        sensor = layout[draw(st.integers(0, len(layout) - 1))]
        dist = draw(st.floats(1e-12, 0.1))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        target = sensor + dist * np.array([math.cos(angle), math.sin(angle)])
    elif family == "near_collinear":
        scale = 10.0 ** draw(st.floats(-12.0, 0.0))
        layout[:, 1] *= scale
        target[1] *= scale
    else:
        shift = np.array([draw(st.floats(-1e12, 1e12)), draw(st.floats(-1e12, 1e12))])
        layout += shift
        target += shift
    truth = TargetState(target, (draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))),
                        (draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))))
    noise = NoiseSpec(draw(_SIGMA), draw(_SIGMA), draw(_SIGMA))
    return SensorArray(layout), truth, noise, draw(st.integers(0, 2 ** 32 - 1))


# a target 1.7e-162 m from sensor 0: its drr, 1.75e161, overflows when squared
_SQUASHED = DEFAULT_SENSOR_POSITIONS * (1.0, 1e-3)
_ON_SENSOR = TargetState((0.0, 1.73657409e-162), (0.0, 1.0))
# the reference scene shrunk to 1e-155 m: the stage Gram determinants underflow to 0
_TINY = SensorArray(DEFAULT_SENSOR_POSITIONS * 1e-155)
_TINY_TARGET = TargetState((3e-154, 4e-154), (1.0, 2.0), (0.5, 0.25))
# the position stage's eigenvalue spread p underflows to 0 (see test_kernels.py)
_P_UNDERFLOW = SensorArray([(100.0, 0.0), (-100.0, 0.0), (0.0, 100.0), (0.0, -100.0),
                            (1.0, 2e-158), (-1.0, -2e-158)])


@settings(max_examples=200, deadline=None)
@given(scene=_degenerate_scene(), rule=st.sampled_from((WeightRule(), PROPAGATED)))
@example(scene=(SensorArray(_SQUASHED), _ON_SENSOR, NOISELESS, 0), rule=PROPAGATED)
@example(scene=(SensorArray(_SQUASHED), _ON_SENSOR, NoiseSpec(), 0), rule=PROPAGATED)
@example(scene=(_TINY, _TINY_TARGET, NOISELESS, 0), rule=WeightRule())
@example(scene=(_TINY, _TINY_TARGET, NoiseSpec(), 0), rule=PROPAGATED)
@example(scene=(_P_UNDERFLOW, TargetState((30.0, 40.0), (1.0, 2.0)), NoiseSpec(), 0),
         rule=PROPAGATED)
# the stage-3 variances span more than 2^1024: scaling them overflowed
@example(scene=(SensorArray(DEFAULT_SENSOR_POSITIONS), TargetState((100.0 + 1e-12, 100.0),
                                                                   (0.0, 1.0)),
                NoiseSpec(1.0, 0.0, 2.3e-149), 0), rule=PROPAGATED)
def test_degenerate_inputs_give_finite_estimates_or_named_errors(scene, rule):
    sensors, truth, noise, seed = scene
    try:
        ms = synthesize_measurements(truth, sensors, noise, seed)
        res = estimate_all(ms, sensors, rule)
    except KinlocError:
        return
    for value in (res.position.position, res.velocity_ls.value, res.velocity_wls.value,
                  res.accel_ls.value, res.accel_wls.value):
        assert np.all(np.isfinite(value))
