import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinloc import _kernels as K
from kinloc.errors import (DegenerateGeometry, KinlocError, SingularGeometry,
                           TooFewSensors, ZeroRange)
from kinloc.estim import (PROPAGATED, UNIFORM, WeightRule,
                          acceleration_error_model,
                          acceleration_pseudo_measurements, estimate_acceleration,
                          estimate_all, estimate_position, estimate_velocity,
                          row_weights, solve_linear_stage, solve_shared_error_stage)
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState,
                          range_to, synthesize_measurements, true_measurements)
from kinloc.montecarlo import DEFAULT_SENSOR_POSITIONS

NOISELESS = NoiseSpec(0.0, 0.0, 0.0)


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


class TestRowWeights:
    def test_weight_modes(self):
        rhat = np.array([5.0, 0.3, 7e5])
        np.testing.assert_array_equal(row_weights(rhat, UNIFORM), np.ones(3))
        for rule in (WeightRule(), PROPAGATED):
            np.testing.assert_array_equal(row_weights(rhat, rule),
                                          [1.0 / 5.0, 1.0 / 0.3, 1.0 / 7e5])

    def test_squared_inverse_range_rule_removed(self):
        with pytest.raises(ValueError):
            WeightRule("inverse_range_sq")

    def test_inverse_range_weight(self):
        # a sensor 5 m from p_hat gets weight 1/5 under both 1/r rules
        sensors = SensorArray([(0.0, 0.0), (6.0, 8.0)])
        *_, rhat = K.system_rows(sensors.xs, sensors.ys, 3.0, 4.0)
        for rule in (WeightRule(), PROPAGATED):
            w = row_weights(rhat, rule)
            assert w[0] == pytest.approx(0.2, rel=1e-15)
            assert w[1] == pytest.approx(0.2, rel=1e-15)


class TestSolveLinearStage:
    def test_consistent_system_recovers_exactly(self, rng):
        for _ in range(50):
            B = rng.normal(0, 50, (6, 2))
            x_true = rng.normal(0, 10, 2)
            est = solve_linear_stage(B, B @ x_true, np.ones(6))
            np.testing.assert_allclose(est.value, x_true, rtol=0,
                                       atol=1e-9 * max(1.0, np.abs(x_true).max()))

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
        with pytest.raises(ValueError, match="empty"):
            solve_linear_stage(np.zeros((0, 2)), [], [])
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for bad_B, rhs, w, name in (
                (B, [1.0, 2.0, 3.5], [1.0, 1.0, -0.1], "weights must be positive"),
                (B, [1.0, np.nan, 3.5], np.ones(3), "rhs must be finite"),
                (np.where(B == 0.0, np.inf, B), np.ones(3), np.ones(3), "B must be finite"),
                (B, np.ones(3), [1.0, np.inf, 1.0], "weights must be finite")):
            with pytest.raises(ValueError, match=name):
                solve_linear_stage(bad_B, rhs, w)


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
        for var, s2 in (([1.0, -1.0], 0.0), ([1.0, np.nan], 0.0), ([1.0, 1.0], -1.0),
                        ([1.0, 1.0], np.inf)):
            with pytest.raises(ValueError):
                solve_shared_error_stage(B, rhs, np.array(var), s2)
        with pytest.raises(ValueError):
            solve_shared_error_stage(B, rhs, np.ones(3), 0.0)
        with pytest.raises(ValueError, match="rhs must be finite"):
            solve_shared_error_stage(B, [1.0, np.nan], np.ones(2), 0.0)
        with pytest.raises(ValueError, match="B must be finite"):
            solve_shared_error_stage([[1.0, 0.0], [0.0, np.inf]], rhs, np.ones(2), 0.0)
        with pytest.raises(ValueError, match="empty"):
            solve_shared_error_stage(np.zeros((0, 2)), [], [], 0.0)
        # each variance finite though their sum overflows: accepted and solved
        est = solve_shared_error_stage([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0],
                                       np.full(3, 1e308), 0.0)
        np.testing.assert_allclose(est.value, [1.0, 2.0], rtol=1e-15, atol=1e-15)


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
            np.testing.assert_array_equal(
                est.value, solve_linear_stage(rows, d, row_weights(rhat, rule)).value)

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
        variances, _ = acceleration_error_model(range_noise_only, np.hypot(*rows.T), *rows.T,
                                                np.ones(len(sensors8)), still.velocity)
        assert np.count_nonzero(variances == 0.0) == 1 and variances.max() > 0.0
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
# squashed towards a line (close to cond_cap), and the whole scene moved far
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
